package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"

	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/integrate"
	"gent/internal/lake"
	"gent/internal/matrix"
	gmetrics "gent/internal/metrics"
	"gent/internal/table"
)

// errUnsplittable refuses a configuration the layer-by-layer replay cannot
// reproduce from public layer calls.
var errUnsplittable = errors.New("replay: configuration cannot be split into layer calls")

// checkSplittable refuses what the replay cannot recompose: a non-syntactic
// discovery strategy (the semantic channel's merge is not a public call),
// the LSH first stage (likewise), and skipped traversal.
func checkSplittable(cfg core.Config) error {
	switch {
	case cfg.Discovery.Strategy != discovery.StrategySyntactic:
		return fmt.Errorf("%w: strategy %v", errUnsplittable, cfg.Discovery.Strategy)
	case cfg.Discovery.FirstStageTopK > 0:
		return fmt.Errorf("%w: FirstStageTopK=%d", errUnsplittable, cfg.Discovery.FirstStageTopK)
	case cfg.SkipTraversal:
		return fmt.Errorf("%w: SkipTraversal", errUnsplittable)
	}
	return nil
}

// replayQuery recomposes the session pipeline for one source from the
// layers' public calls — key mining, the set-similarity probe, Expand,
// traversal, integration and evaluation — each in its own span under
// parent. l must be at the epoch the comparison session ran at and inv must
// be the session's inverted substrate for that epoch.
func replayQuery(ctx context.Context, tr *tracer, trace, parent uint64, l *lake.Lake, inv *index.Inverted,
	src *table.Table, cfg core.Config) (*table.Table, gmetrics.Report, error) {
	var none gmetrics.Report
	if err := checkSplittable(cfg); err != nil {
		return nil, none, err
	}
	if len(src.Key) == 0 {
		var key []int
		tr.timed(trace, parent, "table.mine_key", func() map[string]int64 {
			key = table.MineKey(src, keyArity(cfg))
			return map[string]int64{"arity": int64(len(key))}
		})
		if key == nil {
			return nil, none, core.ErrNoKey
		}
		src = src.Clone()
		src.Key = key
	}

	var cands []*discovery.Candidate
	tr.timed(trace, parent, "discovery.probe", func() map[string]int64 {
		cands = discovery.SetSimilarity(l, inv, src, cfg.Discovery)
		return map[string]int64{"candidates": int64(len(cands))}
	})

	keyCols := src.KeyCols()
	var expanded []*discovery.Candidate
	tr.timed(trace, parent, "discovery.expand", func() map[string]int64 {
		n := len(cands)
		unkeyed := 0
		for _, c := range cands {
			if !c.Table.HasCols(keyCols...) {
				unkeyed++
			}
		}
		before := allocBytes()
		expanded = discovery.Expand(cands, src, cfg.Discovery)
		return map[string]int64{
			"in": int64(n), "pairs": int64(n * (n - 1) / 2), "unkeyed": int64(unkeyed),
			"kept": int64(len(expanded)), "alloc_bytes": int64(allocBytes() - before),
		}
	})

	// One query-scoped overlay serves traversal and integration, as in the
	// session: source values the lake never saw are interned there.
	interner := table.NewOverlay(l.Snapshot().Dict())
	tables := make([]*table.Table, len(expanded))
	for i, c := range expanded {
		tables[i] = c.Table
	}
	var picks []int
	var err error
	tr.timed(trace, parent, "matrix.traverse", func() map[string]int64 {
		var st matrix.TraverseStats
		picks, err = matrix.TraverseContext(ctx, src, tables, cfg.Encoding, matrix.TraverseOptions{
			Workers: cfg.TraverseWorkers, Dict: interner,
			OnStats: func(s matrix.TraverseStats) { st = s },
		})
		return map[string]int64{"candidates": int64(len(tables)), "scored": int64(st.CandidatesScored),
			"pruned": int64(st.CandidatesPruned), "rounds": int64(st.Rounds)}
	})
	if err != nil {
		return nil, none, fmt.Errorf("replay: traverse: %w", err)
	}

	orig := make([]*table.Table, len(picks))
	for i, p := range picks {
		orig[i] = tables[p]
	}
	var reclaimed *table.Table
	tr.timed(trace, parent, "integrate.reclaim", func() map[string]int64 {
		reclaimed, err = integrate.NewWith(src, interner).ReclaimContext(ctx, orig)
		rows := 0
		if reclaimed != nil {
			rows = reclaimed.NumRows()
		}
		return map[string]int64{"tables": int64(len(orig)), "rows": int64(rows)}
	})
	if err != nil {
		return nil, none, fmt.Errorf("replay: integrate: %w", err)
	}

	var rep gmetrics.Report
	tr.timed(trace, parent, "metrics.evaluate", func() map[string]int64 {
		rep = gmetrics.Evaluate(src, reclaimed)
		return nil
	})
	return reclaimed, rep, nil
}

// keyArity is the widest key the session mines for a keyless source.
func keyArity(cfg core.Config) int {
	if cfg.KeyMaxArity <= 0 {
		return 3
	}
	return cfg.KeyMaxArity
}

// layerSpans are the replay's layer spans, whose sum the session's latency
// is compared against.
var layerSpans = []string{"table.mine_key", "discovery.probe", "discovery.expand",
	"matrix.traverse", "integrate.reclaim", "metrics.evaluate"}

// allocBytes is the process's cumulative heap allocation. The replay runs on
// one goroutine with nothing else working, so a delta around a call is that
// call's allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

package main

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/table"
)

func fingerprints(ts []*table.Table) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = table.Fingerprint(t)
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	b, err := tptrSessionCorpus()
	if err != nil {
		t.Fatal(err)
	}
	a1 := fingerprints(sourceVariants(b.Sources, 7, 3, true))
	a2 := fingerprints(sourceVariants(b.Sources, 7, 3, true))
	other := fingerprints(sourceVariants(b.Sources, 8, 3, true))
	if !reflect.DeepEqual(a1, a2) {
		t.Error("same seed gave different sources")
	}
	if reflect.DeepEqual(a1, other) {
		t.Error("different seeds gave the same sources")
	}
	seen := map[uint64]bool{}
	for _, fp := range a1 {
		if seen[fp] {
			t.Error("two variants in one pool are identical")
		}
		seen[fp] = true
	}

	mix := mixSpec{rate: 21, hits: 8}
	s1 := openLoopSchedule(7, mix, 10*time.Second, 26, 1, true)
	s2 := openLoopSchedule(7, mix, 10*time.Second, 26, 1, true)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(s1, openLoopSchedule(8, mix, 10*time.Second, 26, 1, true)) {
		t.Error("different seeds gave the same arrival schedule")
	}
	if !reflect.DeepEqual(queryOrder(7, 26, 3), queryOrder(7, 26, 3)) || reflect.DeepEqual(queryOrder(7, 26, 3), queryOrder(8, 26, 3)) {
		t.Error("query order is not a function of the seed")
	}
	if !reflect.DeepEqual(fingerprints(churnBatch(7, 3, 8)), fingerprints(churnBatch(7, 3, 8))) {
		t.Error("same seed gave different churn")
	}
}

func TestSourceVariants(t *testing.T) {
	b, err := tptrSessionCorpus()
	if err != nil {
		t.Fatal(err)
	}
	keyed := sourceVariants(b.Sources, 1, 1, false)
	keyless := sourceVariants(b.Sources, 1, 2, true)
	if len(keyed) != len(b.Sources) || len(keyless) != 2*len(b.Sources) {
		t.Fatalf("got %d and %d variants of %d sources", len(keyed), len(keyless), len(b.Sources))
	}
	for i, v := range keyed {
		base := b.Sources[i]
		if !strings.HasPrefix(v.Name, base.Name+"_") || !reflect.DeepEqual(v.Key, base.Key) || !reflect.DeepEqual(v.Rows, base.Rows) {
			t.Errorf("%s: variant %s with key %v and %d of %d rows", base.Name, v.Name, v.Key, len(v.Rows), len(base.Rows))
		}
	}
	for _, v := range keyless {
		if len(v.Key) != 0 {
			t.Errorf("%s kept a declared key", v.Name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	mix := mixSpec{rate: 40, hits: 9}
	const pool = 30
	s := openLoopSchedule(3, mix, 5*time.Second, pool, 10, false)
	if len(s) != 200 {
		t.Fatalf("%d arrivals, want rate×dur = 200", len(s))
	}
	if n := len(openLoopSchedule(3, mix, 5*time.Second, pool, 10, true)); n != 200 {
		t.Errorf("%d arrivals in whole segments, want 5 segments of 40", n)
	}
	if n := len(openLoopSchedule(3, mixSpec{rate: 45, hits: 9}, 5*time.Second, pool, 10, true)); n != 240 {
		t.Errorf("%d arrivals in whole segments, want 225 rounded to 6 segments of 40", n)
	}
	const seg = pool + 9 + 1
	asked := map[int]int{}
	for i, a := range s {
		if a.due < 0 || a.due >= 5*time.Second || i > 0 && a.due < s[i-1].due {
			t.Fatalf("arrival %d due at %v", i, a.due)
		}
		if a.seg != i/seg {
			t.Fatalf("arrival %d in segment %d", i, a.seg)
		}
		switch a.kind {
		case reqApply:
			if i%seg != seg-1 || a.batch != 10+i/seg {
				t.Fatalf("write at %d with batch %d", i, a.batch)
			}
			if len(asked) != pool {
				t.Fatalf("segment ending at %d missed on %d of %d sources", i, len(asked), pool)
			}
			asked = map[int]int{}
		case reqHit:
			if asked[a.src] == 0 {
				t.Fatalf("arrival %d repeats source %d not asked for since the last write", i, a.src)
			}
		case reqMiss:
			if asked[a.src] != 0 {
				t.Fatalf("arrival %d misses on source %d already asked for", i, a.src)
			}
			asked[a.src]++
		}
	}
}

func TestChurnBatch(t *testing.T) {
	for k := 0; k < 4; k++ {
		batch := churnBatch(1, k, 8)
		if len(batch) != 8 {
			t.Fatalf("batch %d has %d tables", k, len(batch))
		}
		for _, tb := range batch {
			if err := tb.Validate(); err != nil {
				t.Errorf("batch %d: %v", k, err)
			}
		}
	}
}

func TestCheckSplittable(t *testing.T) {
	if err := checkSplittable(core.DefaultConfig()); err != nil {
		t.Fatalf("default config refused: %v", err)
	}
	for name, mut := range map[string]func(*core.Config){
		"hybrid":   func(c *core.Config) { c.Discovery.Strategy = discovery.StrategyHybrid },
		"semantic": func(c *core.Config) { c.Discovery.Strategy = discovery.StrategySemantic },
		"topk":     func(c *core.Config) { c.Discovery.FirstStageTopK = 10 },
		"skip":     func(c *core.Config) { c.SkipTraversal = true },
	} {
		cfg := core.DefaultConfig()
		mut(&cfg)
		if err := checkSplittable(cfg); !errors.Is(err, errUnsplittable) {
			t.Errorf("%s: got %v, want errUnsplittable", name, err)
		}
	}
}

// TestReplayRecomposes pins the traced run's premise: the layer-by-layer
// replay reproduces the session's answer bit for bit, keyed and keyless,
// and both agree with the one-shot oracle.
func TestReplayRecomposes(t *testing.T) {
	b, err := tptrSessionCorpus()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sessionConfig(0)
	srcs := append(sourceVariants(b.Sources[:6], 5, 1, false), sourceVariants(b.Sources[20:], 5, 1, true)...)
	ctx := context.Background()
	exp, err := oracleOneShot(ctx, b.Lake, srcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := openSession(b.Lake.Snapshot().Tables(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var f failures
	if err := replayAll(ctx, tr, s, srcs, exp, 0, &f); err != nil {
		t.Fatal(err)
	}
	if f.failed() != 0 || f.attempted != len(srcs) {
		t.Fatalf("%s: %v", f.base(), f.notes)
	}
	if n := len(tr.byName("table.mine_key")); n != len(srcs)-6 {
		t.Errorf("%d key-mining spans, want one per keyless source (%d)", n, len(srcs)-6)
	}
	for _, name := range layerSpans[1:] {
		if n := len(tr.byName(name)); n != len(srcs) {
			t.Errorf("%d %s spans, want %d", n, name, len(srcs))
		}
	}
}

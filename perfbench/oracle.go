package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/metrics"
	"gent/internal/table"
)

// expected is one source's correct answer: the reclaimed table's content
// fingerprint and its evaluation report.
type expected struct {
	fp     uint64
	report metrics.Report
}

// oracleOneShot computes every source's expected answer with one-shot
// core.ReclaimContext, which builds fresh map-form discovery substrates per
// call — a different path from the session's sharded, epoch-maintained
// ones. Two workers, as many as the machine has callers.
func oracleOneShot(ctx context.Context, l *lake.Lake, srcs []*table.Table, cfg core.Config) ([]expected, error) {
	res, err := oracleWith(srcs, func(src *table.Table) (*core.Result, error) {
		return core.ReclaimContext(ctx, l, src, cfg)
	})
	if err != nil {
		return nil, err
	}
	out := make([]expected, len(res))
	for i, r := range res {
		out[i] = expected{fp: table.Fingerprint(r.Reclaimed), report: r.Report}
	}
	return out, nil
}

// oracleWith runs reclaim over every source on the callers' worth of
// workers and returns each result.
func oracleWith(srcs []*table.Table, reclaim func(*table.Table) (*core.Result, error)) ([]*core.Result, error) {
	out := make([]*core.Result, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := reclaim(srcs[i])
				if err != nil {
					errs[i] = fmt.Errorf("oracle: %s: %w", srcs[i].Name, err)
					continue
				}
				out[i] = res
			}
		}()
	}
	for i := range srcs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reportsEqual compares two reports bit for bit.
func reportsEqual(a, b metrics.Report) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.EIS, b.EIS) && same(a.InstanceSim, b.InstanceSim) &&
		same(a.Recall, b.Recall) && same(a.Precision, b.Precision) && same(a.F1, b.F1) &&
		same(a.InstDiv, b.InstDiv) && same(a.DKL, b.DKL) && same(a.SizeRatio, b.SizeRatio) &&
		a.PerfectReclamation == b.PerfectReclamation
}

// check compares one answer with the expected one; "" when they agree.
func (e expected) check(reclaimed *table.Table, rep metrics.Report) string {
	if reclaimed == nil {
		return "no reclaimed table"
	}
	if fp := table.Fingerprint(reclaimed); fp != e.fp {
		return fmt.Sprintf("reclaimed table fingerprint %016x, want %016x", fp, e.fp)
	}
	if !reportsEqual(rep, e.report) {
		return fmt.Sprintf("report %+v, want %+v", rep, e.report)
	}
	return ""
}

// eisMean is the mean EIS of the expected answers.
func eisMean(exp []expected) float64 {
	v := make([]float64, len(exp))
	for i, e := range exp {
		v[i] = e.report.EIS
	}
	return mean(v)
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/table"
)

// inprocSetups is how many times an in-process run sets its session up;
// setup_s and session_heap_mb are the medians.
const inprocSetups = 41

// inprocWorkload is a closed-loop workload against one warm in-process
// Reclaimer session.
type inprocWorkload struct {
	name string
	// corpus returns the lake the sources are reclaimed from and the base
	// sources the seeded variants are drawn from.
	corpus func() (*lake.Lake, []*table.Table, error)
	cfg    core.Config
}

var tptrSession = inprocWorkload{
	name: "tptr-session",
	corpus: func() (*lake.Lake, []*table.Table, error) {
		b, err := tptrSessionCorpus()
		if err != nil {
			return nil, nil, err
		}
		return b.Lake, b.Sources, nil
	},
	cfg: sessionConfig(0),
}

var wideDeep = inprocWorkload{
	name: "wide-deep",
	corpus: func() (*lake.Lake, []*table.Table, error) {
		b, multi, err := wideDeepCorpus()
		if err != nil {
			return nil, nil, err
		}
		return b.Lake, multi, nil
	},
	cfg: sessionConfig(160),
}

// sessionConfig is the default configuration with the traversal pool split
// across the closed loop's callers, and the candidate cap raised when
// maxCands > 0.
func sessionConfig(maxCands int) core.Config {
	cfg := core.DefaultConfig()
	cfg.TraverseWorkers = core.SplitTraverseWorkers(callers)
	if maxCands > 0 {
		cfg.Discovery.MaxCandidates = maxCands
	}
	return cfg
}

// openSession is the in-process set-up: load the generated tables into a
// fresh lake, intern them, and warm a session (index build).
func openSession(tables []*table.Table, cfg core.Config, tr *tracer) (*core.Reclaimer, error) {
	var l *lake.Lake
	var err error
	tr.timed(0, 0, "lake.load", func() map[string]int64 {
		l = lake.New()
		muts := make([]lake.Mutation, len(tables))
		for i, t := range tables {
			muts[i] = lake.Put(t)
		}
		if _, err = l.Apply(context.Background(), muts...); err == nil {
			l.EnsureInterned()
		}
		return map[string]int64{"tables": int64(len(tables))}
	})
	if err != nil {
		return nil, fmt.Errorf("loading lake: %w", err)
	}
	var s *core.Reclaimer
	tr.timed(0, 0, "core.warm", func() map[string]int64 {
		s = core.NewReclaimer(l, cfg).Warm()
		return nil
	})
	return s, nil
}

// loopStats is what one measured loop saw.
type loopStats struct {
	lat     []float64 // latency of every answered read, ms
	ok      int       // reads answered correctly
	elapsed time.Duration
}

func (s loopStats) qps() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.ok) / s.elapsed.Seconds()
}

// sample is one operation a loop issued.
type sample struct {
	read bool          // a query; a churn write adds no latency sample
	lat  time.Duration // around the call, or from the due time in an open loop
	name string        // what was asked for, for failure notes
	err  error
	// check compares the answer with the oracle; "" when they agree. Only
	// reads that returned without error have one.
	check func() string
}

// record folds one operation into s and f. The answer is checked here,
// after its latency was taken.
func (s *loopStats) record(x sample, f *failures) {
	f.attempted++
	if x.err != nil {
		classify(fmt.Errorf("%s: %w", x.name, x.err), f)
		return
	}
	if !x.read {
		return
	}
	s.lat = append(s.lat, ms(x.lat))
	if bad := x.check(); bad != "" {
		f.mismatches++
		f.note("%s: oracle mismatch: %s", x.name, bad)
		return
	}
	s.ok++
}

// closedLoop runs callers goroutines that each issue the next operation as
// soon as their previous one returns. more(i, elapsed) decides whether
// operation i is issued; it runs under the same lock as the claim, and its
// first false ends the loop, so a loop can stop at a round boundary without
// leaving a round half issued. do(i) performs operation i.
//
// With fill set, a caller that finds the loop ended keeps issuing filler
// operations (do(i) for the following i, while fill(i)) until no measured
// operation is in flight, so every measured operation runs beside the same
// number of callers, the last ones of the window too. Fillers are checked
// and counted in f but add nothing to the returned statistics.
func closedLoop(more func(i int, elapsed time.Duration) bool, do func(i int) sample,
	fill func(i int) bool, f *failures) loopStats {
	var (
		mu       sync.Mutex // guards out, spare and f
		out      loopStats
		spare    loopStats  // what fillers saw
		claimMu  sync.Mutex // guards next, stopped and inflight
		next     int
		stopped  bool
		inflight int // measured operations issued and not yet recorded
		wg       sync.WaitGroup
	)
	start := time.Now()
	// claim returns the next operation and whether it is measured; ok is
	// false when the caller is done.
	claim := func() (i int, measured, ok bool) {
		claimMu.Lock()
		defer claimMu.Unlock()
		if !stopped && more(next, time.Since(start)) {
			inflight++
			measured = true
		} else {
			stopped = true
			if fill == nil || inflight == 0 || !fill(next) {
				return 0, false, false
			}
		}
		next++
		return next - 1, measured, true
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, measured, ok := claim()
				if !ok {
					return
				}
				x := do(i)
				mu.Lock()
				if measured {
					out.record(x, f)
					out.elapsed = max(out.elapsed, time.Since(start))
				} else {
					spare.record(x, f)
				}
				mu.Unlock()
				if measured {
					claimMu.Lock()
					inflight--
					claimMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// sessionLoop is the in-process closed loop: the callers ask the session
// for the sources in order. With dur > 0 they stop issuing once dur has
// passed and the pass over the sources in progress is complete (wrapping
// around order if needed), so every source is measured equally often; with
// dur <= 0 they run order once. With dur > 0 callers done early keep
// asking (unmeasured) until the last measured call returns. With tr set,
// each call is a core.reclaim span.
func sessionLoop(ctx context.Context, s *core.Reclaimer, srcs []*table.Table, exp []expected,
	order []int, dur time.Duration, tr *tracer, f *failures) loopStats {
	more := func(i int, elapsed time.Duration) bool {
		if dur <= 0 {
			return i < len(order)
		}
		return i%len(srcs) != 0 || elapsed < dur
	}
	var fill func(int) bool
	if dur > 0 {
		fill = func(int) bool { return true }
	}
	do := func(i int) sample {
		k := order[i%len(order)]
		var sp *span
		if tr != nil {
			sp = tr.begin(0, 0, "core.reclaim")
		}
		t0 := time.Now()
		res, err := s.ReclaimContext(ctx, srcs[k])
		x := sample{read: true, lat: time.Since(t0), name: srcs[k].Name, err: err}
		if sp != nil {
			var cands int64
			if res != nil {
				cands = int64(res.CandidateCount)
			}
			tr.end(sp, map[string]int64{"candidates": cands})
		}
		if err == nil {
			x.check = func() string { return exp[k].check(res.Reclaimed, res.Report) }
		}
		return x
	}
	return closedLoop(more, do, fill, f)
}

// replayAll runs every source once (more passes until minDur has passed)
// through the session and then through the layer-by-layer replay, on one
// goroutine, and checks that the two agree bit for bit and with the oracle.
func replayAll(ctx context.Context, tr *tracer, s *core.Reclaimer, srcs []*table.Table, exp []expected,
	minDur time.Duration, f *failures) error {
	cfg := s.Config()
	if err := checkSplittable(cfg); err != nil {
		return err
	}
	inv := s.BuildIndexes().Inverted
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < minDur; pass++ {
		for k, src := range srcs {
			if err := replayOne(ctx, tr, s, inv, src, exp[k], f); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayOne is one source's session call plus its replay, both under one
// "query" root span.
func replayOne(ctx context.Context, tr *tracer, s *core.Reclaimer, inv *index.Inverted, src *table.Table,
	want expected, f *failures) error {
	root := tr.begin(0, 0, "query")
	sp := tr.begin(root.Trace, root.ID, "core.reclaim")
	res, err := s.ReclaimContext(ctx, src)
	tr.end(sp, nil)
	f.attempted++
	if err != nil {
		tr.end(root, nil)
		f.errors++
		f.note("%s: %v", src.Name, err)
		return nil
	}
	rec, rep, rerr := replayQuery(ctx, tr, root.Trace, root.ID, s.Lake(), inv, src, s.Config())
	tr.end(root, nil)
	if rerr != nil {
		return rerr
	}
	session := expected{fp: table.Fingerprint(res.Reclaimed), report: res.Report}
	if bad := session.check(rec, rep); bad != "" {
		f.mismatches++
		f.note("%s: replay disagrees with the session: %s", src.Name, bad)
	} else if bad := want.check(res.Reclaimed, res.Report); bad != "" {
		f.mismatches++
		f.note("%s: oracle mismatch: %s", src.Name, bad)
	}
	return nil
}

// liveHeap is the live heap after a forced collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// runInProcess runs an in-process workload. Untraced, it sets the session
// up inprocSetups times, warms it with every source once and measures the
// closed loop for dur. Traced, it sets up once under spans, measures an
// untraced and a traced closed loop of dur each (their medians give the
// tracing overhead), then replays every source layer by layer.
func runInProcess(ctx context.Context, w inprocWorkload, o runOpts) (*result, error) {
	corpus, bases, err := w.corpus()
	if err != nil {
		return nil, err
	}
	srcs := sourceVariants(bases, o.seed, 1, false)
	if o.trace {
		if err := checkSplittable(w.cfg); err != nil {
			return nil, err
		}
	}
	exp, err := oracleOneShot(ctx, corpus, srcs, w.cfg)
	if err != nil {
		return nil, err
	}
	tables := corpus.Snapshot().Tables()
	r := newResult(w.name)
	r.set("eis_mean", eisMean(exp), len(exp))

	var s *core.Reclaimer
	var tr *tracer
	n := inprocSetups
	if o.trace {
		tr, n = newTracer(), 1
	}
	var setups, heaps []float64
	for i := 0; i < n; i++ {
		s = nil
		base := liveHeap()
		t0 := time.Now()
		s, err = openSession(tables, w.cfg, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, mib(int64(liveHeap())-int64(base)))
	}
	if !o.trace {
		r.set("setup_s", median(setups), len(setups))
		r.set("session_heap_mb", median(heaps), len(heaps))
	}

	// Warm-up: every source once, before anything is timed.
	identity := make([]int, len(srcs))
	for i := range identity {
		identity[i] = i
	}
	sessionLoop(ctx, s, srcs, exp, identity, 0, nil, &r.fail)

	order := queryOrder(o.seed, len(srcs), 400)
	cache0 := s.Lake().CacheStats()
	runtime.GC() // every window starts from the same collected heap
	main := sessionLoop(ctx, s, srcs, exp, order, o.dur, nil, &r.fail)
	r.setLoop(main)
	if !o.trace {
		return r, nil
	}

	traced := sessionLoop(ctx, s, srcs, exp, order, o.dur, tr, &r.fail)
	cache1 := s.Lake().CacheStats()
	if err := replayAll(ctx, tr, s, srcs, exp, o.dur/2, &r.fail); err != nil {
		return nil, err
	}
	r.tr = tr
	r.setLayers(tr)
	r.set("trace.overhead_frac", overheadFrac(traced.lat, main.lat), len(traced.lat))
	r.set("core.warm_s", tr.meanMS("core.warm")/1000, 1)
	r.set("lake.load_s", tr.meanMS("lake.load")/1000, 1)
	r.setLakeCache(cache0, cache1)
	return r, nil
}

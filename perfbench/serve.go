package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gent/internal/benchmark"
	"gent/internal/core"
	"gent/internal/discovery"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/server"
	"gent/internal/server/boot"
	"gent/internal/server/client"
	"gent/internal/table"
)

const (
	// serveSetups is how many times serve-large boots its server; setup_s
	// and session_heap_mb are the medians.
	serveSetups = 3
	// churnPerBatch is how many tables one churn write puts.
	churnPerBatch = 8
	// p99LimitMS is the latency limit the max-rate ladder holds each offered
	// rate to, measured from each request's due time. Below the knee the p99
	// is set by the stall after each churn write (write, then index
	// catch-up on the next query), a few hundred milliseconds here.
	p99LimitMS = 500
	// requestTimeout bounds one request; a request past it failed.
	requestTimeout = 30 * time.Second
	// drainGrace is how long a window waits past its end for requests still
	// queued at the client; what is left after it was never sent.
	drainGrace = 2 * time.Second
)

// serveMix is serve-large's traffic: segments of the 26 pool sources as
// misses, 8 hits and one churn write (35 arrivals; 24% of reads hit). The
// traced run's open loop offers it at a fixed rate below the miss-path knee
// (on the reference machine the max-rate ladder first misses its p99 limit
// between 40/s and 80/s); a 10 s window holds six segments.
var serveMix = mixSpec{rate: 21, hits: 8}

// ladderRates are the offered rates (1/s) the traced run steps up through
// to find the highest one that meets p99LimitMS without a growing backlog.
var ladderRates = []float64{10, 20, 30, 40, 50, 60, 80, 100}

// closedSegments is how many segments the untraced closed loop's sequence
// holds: more than any window on the reference machine uses (about 25 in
// 10 s).
const closedSegments = 200

// catchupCycles is how many churn writes the traced run follows with an
// explicit Warm, to time the session's index catch-up on its own.
const catchupCycles = 3

// served is one booted server: the session behind it, the HTTP server on
// loopback and a client limited to callers connections.
type served struct {
	session *core.Reclaimer
	srv     *server.Server
	hs      *http.Server
	done    chan error
	client  *client.Client
	tport   *http.Transport
	dir     string
	addr    string
	// rejected counts the lake files the CSV load refused.
	rejected int
}

// close drains and stops the server, waits for its serving goroutine and
// removes its directories.
func (sv *served) close() {
	if sv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.srv.Drain(ctx)   //nolint:errcheck // a drain timeout still shuts down below
	sv.hs.Shutdown(ctx) //nolint:errcheck // ditto
	<-sv.done
	sv.tport.CloseIdleConnections()
	os.RemoveAll(sv.dir)
}

// bootServer is gentd's boot path: load the CSV lake with a segment store
// and a resident budget of budget bytes, adopt indexes from an empty index
// directory (a build and save), warm the session, and serve it on loopback.
// With tr set the index step is split into its build, save and load calls,
// each in a span, and the loaded set is injected.
func bootServer(ctx context.Context, csvDir, dir string, budget int64, cfg core.Config, tr *tracer) (*served, error) {
	sv := &served{dir: dir, done: make(chan error, 1)}
	var l *lake.Lake
	var err error
	tr.timed(0, 0, "lake.load", func() map[string]int64 {
		l, err = boot.OpenLake(boot.LakeOptions{Dir: csvDir, StoreDir: filepath.Join(dir, "seg")},
			func(string, ...any) { sv.rejected++ })
		if err == nil {
			// gentd's -max-resident-mb in bytes: the budget is below a MiB.
			l.SetResidentBudget(budget)
		}
		return map[string]int64{"rejected": int64(sv.rejected)}
	})
	if err != nil {
		return nil, err
	}
	session := core.NewReclaimer(l, cfg)
	idxDir := filepath.Join(dir, "idx")
	if tr == nil {
		var warned []string
		if _, err := boot.AdoptIndexes(session, idxDir, func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) }); err != nil {
			return nil, err
		}
		if len(warned) > 0 {
			return nil, fmt.Errorf("adopting indexes: %s", strings.Join(warned, "; "))
		}
	} else {
		var ix *index.IndexSet
		tr.timed(0, 0, "index.build", func() map[string]int64 {
			ix = index.BuildIndexSetSharded(l.Snapshot(), cfg.IndexShards)
			return nil
		})
		tr.timed(0, 0, "index.save", func() map[string]int64 {
			err = ix.SaveDir(idxDir)
			return nil
		})
		if err != nil {
			return nil, err
		}
		tr.timed(0, 0, "index.load", func() map[string]int64 {
			ix, err = index.LoadIndexSetDir(idxDir)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := session.UseIndexes(ix); err != nil {
			return nil, err
		}
	}
	tr.timed(0, 0, "core.warm", func() map[string]int64 {
		session.Warm()
		return nil
	})
	sv.session = session
	sv.srv = server.New(session, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv.hs = &http.Server{Handler: sv.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	sv.addr = ln.Addr().String()
	sv.tport, sv.client = newClient(sv.addr)
	if err := sv.client.Health(ctx); err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

// wireExpected is one source's correct answer as the server sends it: the
// fingerprint of the reclaimed table after the wire round trip, and the
// metrics block.
type wireExpected struct {
	fp      uint64
	metrics server.MetricsJSON
}

func (e wireExpected) check(res *client.Result) string {
	t, err := res.Table()
	if err != nil {
		return fmt.Sprintf("undecodable table: %v", err)
	}
	if t == nil {
		return "no reclaimed table"
	}
	if fp := table.Fingerprint(t); fp != e.fp {
		return fmt.Sprintf("reclaimed table fingerprint %016x, want %016x", fp, e.fp)
	}
	a, b := res.Metrics, e.metrics
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.EIS, b.EIS) || !same(a.Recall, b.Recall) || !same(a.Precision, b.Precision) || !same(a.F1, b.F1) ||
		!same(a.InstDiv, b.InstDiv) || !same(a.DKL, b.DKL) || a.Perfect != b.Perfect {
		return fmt.Sprintf("metrics %+v, want %+v", a, b)
	}
	return ""
}

// serveOracle computes every source's expected answer over a separate,
// fully resident load of the same CSV lake, through a fresh session with the
// uncompressed map-form substrate (IndexShards 0) that never sees an epoch
// change — not the sharded, budgeted, epoch-maintained path the server runs.
// It also returns the working set: the interned bytes of the lake tables the
// set-similarity probe returns as candidates for the sources.
func serveOracle(ctx context.Context, csvDir string, srcs []*table.Table, cfg core.Config) ([]expected, []wireExpected, int64, error) {
	l, _ := lake.LoadDir(csvDir) // refused files are counted by the server's own load
	ocfg := cfg
	ocfg.IndexShards = 0
	s := core.NewReclaimer(l, ocfg).Warm()
	res, err := oracleWith(srcs, func(src *table.Table) (*core.Result, error) { return s.ReclaimContext(ctx, src) })
	if err != nil {
		return nil, nil, 0, err
	}
	exp := make([]expected, len(res))
	wire := make([]wireExpected, len(res))
	for i, r := range res {
		exp[i] = expected{fp: table.Fingerprint(r.Reclaimed), report: r.Report}
		enc := server.EncodeResult(srcs[i].Name, r, false)
		t, err := server.DecodeTable(enc.Reclaimed)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("oracle: %s: wire round trip: %w", srcs[i].Name, err)
		}
		wire[i] = wireExpected{fp: table.Fingerprint(t), metrics: enc.Metrics}
	}
	inv := s.BuildIndexes().Inverted
	snap := l.Snapshot()
	touched := map[string]bool{}
	var working int64
	for _, src := range srcs {
		keyed := src.Clone()
		if len(keyed.Key) == 0 {
			keyed.Key = table.MineKey(src, keyArity(cfg))
		}
		for _, c := range discovery.SetSimilarity(l, inv, keyed, cfg.Discovery) {
			for _, name := range c.Sources {
				if !touched[name] {
					touched[name] = true
					working += snap.Interned(name).MemBytes()
				}
			}
		}
	}
	return exp, wire, working, nil
}

// serveOp returns the operation that performs one arrival against the
// server: a read of its source, or its churn write. With tr set, reads are
// server.reclaim spans (counting result-cache hits) and writes lake.apply
// spans.
func serveOp(ctx context.Context, c *client.Client, srcs []*table.Table, want []wireExpected,
	churn map[int][]server.MutationJSON, tr *tracer) func(arrival) sample {
	return func(a arrival) sample {
		if a.kind == reqApply {
			var err error
			t0 := time.Now()
			tr.timed(0, 0, "lake.apply", func() map[string]int64 {
				_, err = c.Apply(ctx, churn[a.batch]...)
				return map[string]int64{"tables": int64(len(churn[a.batch]))}
			})
			return sample{lat: time.Since(t0), name: fmt.Sprintf("churn batch %d", a.batch), err: err}
		}
		var res *client.Result
		var err error
		t0 := time.Now()
		tr.timed(0, 0, "server.reclaim", func() map[string]int64 {
			res, err = c.Reclaim(ctx, srcs[a.src], nil)
			if res != nil && res.Cached {
				return map[string]int64{"hit": 1}
			}
			return nil
		})
		x := sample{read: true, lat: time.Since(t0), name: srcs[a.src].Name, err: err}
		if err == nil {
			x.check = func() string { return want[a.src].check(res) }
		}
		return x
	}
}

// openStats is what one open-loop window measured.
type openStats struct {
	done     []sample  // every sent operation; reads timed from their due time
	late     []float64 // generator lateness, ms
	arrivals int
	unsent   int // arrivals still queued when the window's grace ran out
	backlog  int // arrivals queued but not started when the window ended
	elapsed  time.Duration
}

// openLoop sends sched at its due times over callers connections. Latency
// is taken from each request's due time, so a stall counts against every
// request it delays.
func openLoop(sched []arrival, op func(arrival) sample, dur time.Duration) openStats {
	type job struct {
		a   arrival
		due time.Time
	}
	queue := make(chan job, len(sched)) // sized to the number of sends
	st := openStats{arrivals: len(sched)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	cutoff := start.Add(dur + drainGrace)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if time.Now().After(cutoff) {
					mu.Lock()
					st.unsent++
					mu.Unlock()
					continue
				}
				x := op(j.a)
				end := time.Now()
				x.lat = end.Sub(j.due)
				mu.Lock()
				st.done = append(st.done, x)
				st.elapsed = max(st.elapsed, end.Sub(start))
				mu.Unlock()
			}
		}()
	}
	for _, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		st.late = append(st.late, ms(time.Since(due)))
		queue <- job{a: a, due: due}
	}
	if time.Now().Before(start.Add(dur)) {
		time.Sleep(time.Until(start.Add(dur)))
	}
	st.backlog = len(queue)
	close(queue)
	wg.Wait()
	return st
}

// account folds a window into f and returns its loop statistics. Answers
// are checked here, after the window, so checking steals no time from it.
// Requests still queued after the grace were due and never answered: they
// failed, as a timeout would have.
func (st *openStats) account(f *failures) loopStats {
	var out loopStats
	for _, x := range st.done {
		out.record(x, f)
	}
	out.elapsed = st.elapsed
	f.attempted += st.unsent
	f.timeouts += st.unsent
	if st.unsent > 0 {
		f.note("%d requests still queued %v after the window", st.unsent, drainGrace)
	}
	return out
}

// serveClosedLoop sends sched's requests in order as a closed loop and stops
// issuing at the first segment boundary after dur, so every segment it
// measures is whole, then keeps both connections busy with the following
// requests (unmeasured) until the last measured one returns. Latency is
// taken around each call.
func serveClosedLoop(sched []arrival, op func(arrival) sample, dur time.Duration, f *failures) loopStats {
	more := func(i int, elapsed time.Duration) bool {
		return i < len(sched) && (i == 0 || sched[i].seg == sched[i-1].seg || elapsed < dur)
	}
	fill := func(i int) bool { return i < len(sched) }
	return closedLoop(more, func(i int) sample { return op(sched[i]) }, fill, f)
}

// classify counts one failed request by cause.
func classify(err error, f *failures) {
	var ce *client.Error
	switch {
	case errors.As(err, &ce) && ce.Status == http.StatusTooManyRequests:
		f.shed++
	case errors.As(err, &ce) && ce.Status >= 500:
		f.serverErr++
	case errors.Is(err, context.DeadlineExceeded) || isTimeout(err):
		f.timeouts++
	default:
		f.errors++
	}
	f.note("%v", err)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// makeChurn draws the churn batches sched writes.
func makeChurn(seed int64, sched []arrival, into map[int][]server.MutationJSON) {
	for _, a := range sched {
		if a.kind != reqApply || into[a.batch] != nil {
			continue
		}
		for _, t := range churnBatch(seed, a.batch, churnPerBatch) {
			into[a.batch] = append(into[a.batch], client.Put(t))
		}
	}
}

// warmServer asks for every source once, so the resident cache and lazy
// state are filled before anything is timed.
func warmServer(srcs []*table.Table, op func(arrival) sample, f *failures) {
	more := func(i int, _ time.Duration) bool { return i < len(srcs) }
	closedLoop(more, func(i int) sample { return op(arrival{kind: reqMiss, src: i}) }, nil, f)
}

// rollEpoch writes churn batch k, untimed, so the window after it starts at
// a fresh epoch with an empty result cache like every segment of the mix.
func rollEpoch(op func(arrival) sample, k int, f *failures) {
	var discard loopStats
	discard.record(op(arrival{kind: reqApply, batch: k}), f)
}

// scrape reads the server's result-cache counters from /v1/stats and its
// shed and reclaim-request counters from /metrics.
type scrape struct {
	cache    server.ResultCacheStats
	shed     float64
	requests float64
}

func scrapeServer(ctx context.Context, c *client.Client) (scrape, error) {
	st, err := c.Stats(ctx, false)
	if err != nil {
		return scrape{}, err
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		return scrape{}, err
	}
	out := scrape{cache: st.Cache, shed: m["gentd_shed_total"]}
	for k, v := range m {
		if strings.HasPrefix(k, `gentd_requests_total{endpoint="reclaim"`) {
			out.requests += v
		}
	}
	return out, nil
}

// runServeLarge runs serve-large. Untraced, it boots the server
// serveSetups times, warms it, and measures a closed loop of callers
// connections through the mix's segments for the window. Traced, it boots
// once with the index step split into spans, measures an untraced open-loop
// window and a traced one, times index catch-up, steps up the rate ladder,
// and replays every source layer by layer against the server's session.
func runServeLarge(ctx context.Context, o runOpts) (*result, error) {
	b, err := benchmark.BuildLargePreset(largeTables, largeCorpusSeed)
	if err != nil {
		return nil, err
	}
	srcs := sourceVariants(b.Sources, o.seed, 1, true)
	csvDir := filepath.Join(o.work, "lake")
	if err := b.Lake.SaveDir(csvDir); err != nil {
		return nil, err
	}
	b = nil
	cfg := core.DefaultConfig()
	if o.trace {
		if err := checkSplittable(cfg); err != nil {
			return nil, err
		}
	}
	exp, want, working, err := serveOracle(ctx, csvDir, srcs, cfg)
	if err != nil {
		return nil, err
	}
	// The resident budget is half the bytes the sources' candidates take
	// interned, so every pass over the sources pages forms out to the
	// segment store and back.
	budget := working / 2
	// The generated corpus and the oracle's lake are garbage now; hand
	// their memory back before the server boots.
	debug.FreeOSMemory()

	// The untraced run drives a closed loop through the same segments,
	// enough of them for any window; the traced run an open loop at
	// serveMix's rate.
	sched := openLoopSchedule(o.seed, serveMix, o.dur, len(srcs), 1, true)
	if !o.trace {
		sched = openLoopSchedule(o.seed, mixSpec{rate: closedSegments * float64(len(srcs)+serveMix.hits+1) / o.dur.Seconds(),
			hits: serveMix.hits}, o.dur, len(srcs), 1, true)
	}
	churn := map[int][]server.MutationJSON{}
	makeChurn(o.seed, append(sched, arrival{kind: reqApply, batch: 0}), churn)

	r := newResult("serve-large")
	r.set("eis_mean", eisMean(exp), len(exp))
	var sv *served
	defer func() { sv.close() }()
	var tr *tracer
	boots := serveSetups
	if o.trace {
		tr, boots = newTracer(), 1
	}
	var setups, heaps []float64
	for i := 0; i < boots; i++ {
		sv.close()
		sv = nil
		base := liveHeap()
		t0 := time.Now()
		sv, err = bootServer(ctx, csvDir, filepath.Join(o.work, fmt.Sprintf("boot%d", i)), budget, cfg, tr)
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
	c := sv.client
	r.notes = append(r.notes, fmt.Sprintf("lake: %d CSV files refused by the load (lake.load.rejected), %d tables served, resident budget %.2f MiB (half of the candidates' %.2f MiB)",
		sv.rejected, sv.session.Lake().Len(), mib(budget), mib(working)))
	r.set("lake.load.rejected", float64(sv.rejected), 1)

	op := serveOp(ctx, c, srcs, want, churn, nil)
	warmServer(srcs, op, &r.fail)
	rollEpoch(op, 0, &r.fail)

	sc0, err := scrapeServer(ctx, c)
	if err != nil {
		return nil, err
	}
	cache0 := sv.session.Lake().CacheStats()
	runtime.GC() // every window starts from the same collected heap
	if !o.trace {
		main := serveClosedLoop(sched, op, o.dur, &r.fail)
		r.setLoop(main)
		r.notes = append(r.notes, fmt.Sprintf("closed loop: %d reads over %v, tail p%g %.1f ms",
			len(main.lat), main.elapsed.Round(time.Millisecond), tailPercentile(len(main.lat)), percentile(main.lat, tailPercentile(len(main.lat)))))
		return r, nil
	}
	win := openLoop(sched, op, o.dur)
	cache1 := sv.session.Lake().CacheStats()
	sc1, err := scrapeServer(ctx, c)
	if err != nil {
		return nil, err
	}
	main := win.account(&r.fail)
	main.elapsed = max(main.elapsed, o.dur)
	r.setLoop(main)
	tail := tailPercentile(len(main.lat))
	r.notes = append(r.notes, fmt.Sprintf("open loop: %d arrivals offered at %.1f/s over %v, backlog at window end %d, tail p%g %.1f ms",
		win.arrivals, float64(win.arrivals)/o.dur.Seconds(), o.dur, win.backlog, tail, percentile(main.lat, tail)))

	r.tr = tr
	r.set("loadgen.late_ms", percentile(win.late, 99), len(win.late))
	r.setLakeCache(cache0, cache1)
	hits, misses := float64(sc1.cache.Hits-sc0.cache.Hits), float64(sc1.cache.Misses-sc0.cache.Misses)
	if hits+misses > 0 {
		r.set("server.cache.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	if n := sc1.requests - sc0.requests; n > 0 {
		r.set("server.shed_frac", (sc1.shed-sc0.shed)/n, int(n))
	}
	for _, n := range []string{"lake.load", "index.build", "index.save", "index.load", "core.warm"} {
		r.set(n+"_s", tr.meanMS(n)/1000, 1)
	}

	// A traced window at the same offered rate: its reads, split by the
	// result-cache header, give the server's hit and miss times, and its
	// median against the untraced window's gives the tracing overhead.
	tsched := openLoopSchedule(o.seed+1, serveMix, o.dur/2, len(srcs), 1001, true)
	makeChurn(o.seed+1, append(tsched, arrival{kind: reqApply, batch: 1000}), churn)
	rollEpoch(op, 1000, &r.fail)
	tracedWin := openLoop(tsched, serveOp(ctx, c, srcs, want, churn, tr), o.dur/2)
	traced := tracedWin.account(&r.fail)
	r.set("trace.overhead_frac", overheadFrac(traced.lat, main.lat), len(traced.lat))
	var hitMS, missMS []float64
	for _, s := range tr.byName("server.reclaim") {
		if s.Counts["hit"] == 1 {
			hitMS = append(hitMS, ms(s.dur()))
		} else {
			missMS = append(missMS, ms(s.dur()))
		}
	}
	r.set("server.hit.ms", mean(hitMS), len(hitMS))
	r.set("server.miss.ms", mean(missMS), len(missMS))

	// Index catch-up on its own: churn writes, each followed at once by a
	// Warm, with no reads in between.
	for k := 0; k < catchupCycles; k++ {
		batch := 1900 + k
		muts := make([]server.MutationJSON, 0, churnPerBatch)
		for _, t := range churnBatch(o.seed, batch, churnPerBatch) {
			muts = append(muts, client.Put(t))
		}
		var aerr error
		sp := tr.timed(0, 0, "lake.apply", func() map[string]int64 {
			_, aerr = c.Apply(ctx, muts...)
			return map[string]int64{"tables": int64(len(muts))}
		})
		r.fail.attempted++
		if aerr != nil {
			classify(aerr, &r.fail)
			continue
		}
		tr.timed(sp.Trace, sp.ID, "core.catchup", func() map[string]int64 {
			sv.session.Warm()
			return nil
		})
	}
	r.set("lake.apply.ms", tr.meanMS("lake.apply"), len(tr.byName("lake.apply")))
	r.set("core.catchup.ms", tr.meanMS("core.catchup"), len(tr.byName("core.catchup")))

	r.set("max_rate_qps", maxRate(srcs, op, o, churn, &r.fail, &r.notes), 1)

	if err := replayAll(ctx, tr, sv.session, srcs, exp, 0, &r.fail); err != nil {
		return nil, err
	}
	r.setLayers(tr)
	return r, nil
}

// maxRate steps up ladderRates, each step a window of half the run's
// length, and returns the offered rate (arrivals over the window) of the
// highest step below the first one whose p99 latency from due time misses
// p99LimitMS or whose backlog grows. Requests that fail or are never sent
// miss the limit. Failures of sent requests count into f; a step missing the
// limit does not, finding that point is what the ladder is for.
func maxRate(srcs []*table.Table, op func(arrival) sample, o runOpts,
	churn map[int][]server.MutationJSON, f *failures, notes *[]string) float64 {
	best := 0.0
	dur := o.dur / 2
	for i, rate := range ladderRates {
		mix := serveMix
		mix.rate = rate
		seed := o.seed + int64(10+i)
		first := 2000 + 1000*i
		sched := openLoopSchedule(seed, mix, dur, len(srcs), first+1, false)
		makeChurn(seed, append(sched, arrival{kind: reqApply, batch: first}), churn)
		// Each step starts at a fresh epoch with an empty result cache, as
		// the main window does: a step that ends mid-segment would
		// otherwise leave its misses cached for the next one.
		var step failures
		rollEpoch(op, first, &step)
		st := openLoop(sched, op, dur)
		lat := st.account(&step).lat
		f.add(&step)
		for k := 0; k < step.failed(); k++ {
			lat = append(lat, math.Inf(1))
		}
		p99 := percentile(lat, 99)
		// A backlog of more than a second's arrivals at the window's end is
		// a queue that is growing, not one left by the last stall.
		pass := p99 <= p99LimitMS && st.backlog <= int(rate)
		*notes = append(*notes, fmt.Sprintf("ladder %.1f/s offered: p50 %.1f ms, p99 %.1f ms, backlog %d, pass %v",
			float64(st.arrivals)/dur.Seconds(), percentile(lat, 50), p99, st.backlog, pass))
		if !pass {
			break
		}
		best = float64(st.arrivals) / dur.Seconds()
	}
	return best
}

// newClient is a client to the server at addr limited to callers
// connections.
func newClient(addr string) (*http.Transport, *client.Client) {
	tport := &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers}
	return tport, client.New("http://"+addr, &http.Client{Transport: tport, Timeout: requestTimeout})
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"gent/internal/server/client"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{7, 3, 9, 1, 5, 10, 2, 8, 4, 6}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	if samples[0] != 7 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// Whatever it picks has at least ten samples beyond it.
		if p := tailPercentile(c.n); p > 0 && c.n-nearestRank(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, p, c.n-nearestRank(c.n, p))
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	var f failures
	f.attempted = 10
	classify(&client.Error{Status: http.StatusTooManyRequests}, &f)
	classify(&client.Error{Status: http.StatusServiceUnavailable}, &f)
	classify(&client.Error{Status: http.StatusGatewayTimeout}, &f)
	classify(fmt.Errorf("client: %w", context.DeadlineExceeded), &f)
	classify(&client.Error{Status: http.StatusUnprocessableEntity}, &f)
	classify(errors.New("connection refused"), &f)
	f.mismatches++
	if f.shed != 1 || f.serverErr != 2 || f.timeouts != 1 || f.errors != 2 || f.mismatches != 1 {
		t.Fatalf("classified %+v", f)
	}
	if f.failed() != 7 {
		t.Errorf("failed = %d, want 7", f.failed())
	}
	if f.frac() != 0.7 {
		t.Errorf("frac = %g, want 0.7", f.frac())
	}
	var total failures
	total.add(&f)
	total.add(&failures{attempted: 10})
	if total.attempted != 20 || total.failed() != 7 || total.frac() != 0.35 {
		t.Errorf("folded %d failed of %d", total.failed(), total.attempted)
	}
	if (&failures{}).frac() != 0 {
		t.Error("nothing attempted should read 0")
	}
}

func TestClosedLoopWholeRounds(t *testing.T) {
	// Rounds of five operations: one shed, one wrong answer, three right.
	const round = 5
	more := func(i int, elapsed time.Duration) bool { return i%round != 0 || elapsed < 20*time.Millisecond }
	do := func(i int) sample {
		time.Sleep(time.Millisecond)
		x := sample{read: true, lat: time.Millisecond, name: fmt.Sprint(i), check: func() string { return "" }}
		switch i % round {
		case 1:
			x.err, x.check = &client.Error{Status: http.StatusTooManyRequests}, nil
		case 2:
			x.check = func() string { return "wrong" }
		}
		return x
	}
	var f failures
	s := closedLoop(more, do, nil, &f)
	if f.attempted == 0 || f.attempted%round != 0 {
		t.Fatalf("attempted %d: not whole rounds of %d", f.attempted, round)
	}
	n := f.attempted / round
	if f.shed != n || f.mismatches != n || f.failed() != 2*n || s.ok != 3*n {
		t.Errorf("%d rounds: %s, %d ok", n, f.base(), s.ok)
	}
	// A wrong answer was still answered and keeps its latency; a shed one
	// has none.
	if len(s.lat) != 4*n {
		t.Errorf("%d latencies for %d rounds, want %d", len(s.lat), n, 4*n)
	}
	// A write counts as attempted and adds no latency.
	s.record(sample{name: "churn batch 1"}, &f)
	if f.attempted != n*round+1 || len(s.lat) != 4*n {
		t.Errorf("a write moved the latencies or was not counted: %d attempted, %d latencies", f.attempted, len(s.lat))
	}
}

func TestClosedLoopFill(t *testing.T) {
	if callers < 2 {
		t.Skip("fillers need a second caller")
	}
	// Rounds of four operations whose last one is slow: when the window
	// ends, one caller is still in that slow call and the other fills.
	const round = 4
	more := func(i int, elapsed time.Duration) bool { return i%round != 0 || elapsed < 20*time.Millisecond }
	var (
		mu     sync.Mutex
		issued []int
	)
	do := func(i int) sample {
		mu.Lock()
		issued = append(issued, i)
		mu.Unlock()
		d := time.Millisecond
		if i%round == round-1 {
			d = 30 * time.Millisecond
		}
		time.Sleep(d)
		x := sample{read: true, lat: d, name: fmt.Sprint(i), check: func() string { return "" }}
		if i%round == 1 {
			x.check = func() string { return "wrong" }
		}
		return x
	}
	var f failures
	s := closedLoop(more, do, func(int) bool { return true }, &f)
	// Only whole rounds are measured: operations 0..m-1.
	m := len(s.lat)
	if m == 0 || m%round != 0 || s.ok != m*(round-1)/round {
		t.Fatalf("measured %d operations, %d ok: not whole rounds of %d", m, s.ok, round)
	}
	fillers, wrong := 0, 0
	for _, i := range issued {
		if i >= m {
			fillers++
		}
		if i%round == 1 {
			wrong++
		}
	}
	// The other caller kept busy beside the last slow call, and every
	// filler was checked and counted.
	if fillers == 0 {
		t.Error("no fillers beside the last slow call")
	}
	if f.attempted != len(issued) || f.mismatches != wrong {
		t.Errorf("%d issued, %d wrong: counted %s", len(issued), wrong, f.base())
	}
}

func TestOverheadFrac(t *testing.T) {
	if got := overheadFrac([]float64{11, 12, 11}, []float64{10, 10, 10}); got != 0.1 {
		t.Errorf("overhead = %g, want 0.1", got)
	}
	if got := overheadFrac([]float64{9}, []float64{10}); got != -0.1 {
		t.Errorf("overhead = %g, want -0.1", got)
	}
	if got := overheadFrac([]float64{9}, nil); got != 0 {
		t.Errorf("overhead without a baseline = %g, want 0", got)
	}
}

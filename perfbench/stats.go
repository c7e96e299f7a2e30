package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of all samples at or below
// it. samples need not be sorted; an empty slice gives 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank up a step
	// (99.9% of 10000 is rank 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the percentiles a report may quote as its tail, in
// ascending order.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that still has at
// least ten samples beyond it among n, so a quoted tail always rests on ten
// observations; 0 when not even the median has ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// overheadFrac is the tracing overhead: how much slower the traced run's
// median latency is than the untraced run's, as a share of the untraced one.
// It can be negative when the difference is inside the noise.
func overheadFrac(traced, untraced []float64) float64 {
	base := percentile(untraced, 50)
	if base == 0 {
		return 0
	}
	return (percentile(traced, 50) - base) / base
}

// failures accounts every attempted operation by outcome. An operation
// failed when the program returned an error, shed it (429), failed on its
// side (5xx), ran past its deadline, or answered something the oracle or the
// layer-by-layer replay disagrees with.
type failures struct {
	attempted  int
	errors     int
	shed       int
	serverErr  int
	timeouts   int
	mismatches int
	notes      []string
}

// failed is the number of attempted operations that did not succeed.
func (f *failures) failed() int {
	return f.errors + f.shed + f.serverErr + f.timeouts + f.mismatches
}

// frac is failed over attempted; 0 when nothing was attempted.
func (f *failures) frac() float64 {
	if f.attempted == 0 {
		return 0
	}
	return float64(f.failed()) / float64(f.attempted)
}

// note keeps the first few failure descriptions for the report.
func (f *failures) note(format string, args ...any) {
	if len(f.notes) < 8 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// add folds o into f.
func (f *failures) add(o *failures) {
	f.attempted += o.attempted
	f.errors += o.errors
	f.shed += o.shed
	f.serverErr += o.serverErr
	f.timeouts += o.timeouts
	f.mismatches += o.mismatches
	for _, n := range o.notes {
		if len(f.notes) < 8 {
			f.notes = append(f.notes, n)
		}
	}
}

// base states what the failure fraction is a share of.
func (f *failures) base() string {
	return fmt.Sprintf("%d failed of %d attempted (errors %d, shed 429 %d, 5xx %d, timeouts %d, oracle/replay mismatches %d)",
		f.failed(), f.attempted, f.errors, f.shed, f.serverErr, f.timeouts, f.mismatches)
}

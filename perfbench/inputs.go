package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gent/internal/benchmark"
	"gent/internal/lake"
	"gent/internal/table"
)

// The corpora are fixed; the run seed draws everything a user sends (see
// sourceVariants, queryOrder, openLoopSchedule and churnBatch). Drawing the
// corpus from the seed too moved tptr-session's median latency by up to 2x
// between seeds at the same lake shape: the spread would have measured the
// inputs, not the program.
const (
	// tptrCorpusSeed is the seed of the experiments' default benchmark set,
	// whose SANTOS Large+TP-TR Med corpus tptr-session reproduces.
	tptrCorpusSeed = 17
	// wideCorpusSeed and largeCorpusSeed are the repository benchmarks'
	// preset seed.
	wideCorpusSeed  = 11
	largeCorpusSeed = 11
	// largeTables is serve-large's lake size before the CSV load.
	largeTables = 20000
)

// tptrSessionCorpus builds the SANTOS Large+TP-TR Med shape: a TP-TR corpus
// at base 40 (32 variant tables, 26 sources capped at 80 rows) among 60
// distractor tables.
func tptrSessionCorpus() (*benchmark.TPTR, error) {
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base = 40
	o.Scale.Seed = tptrCorpusSeed
	o.Seed = tptrCorpusSeed
	o.MaxSourceRows = 80
	b, err := benchmark.BuildTPTR("SANTOS Large+TP-TR Med", o)
	if err != nil {
		return nil, err
	}
	benchmark.AddDistractors(b.Lake, 60, 20, tptrCorpusSeed+1)
	return b, nil
}

// wideDeepCorpus builds the wide preset at 12 slices per original (128
// tables) and returns it with its multi-join sources.
func wideDeepCorpus() (*benchmark.TPTR, []*table.Table, error) {
	b, err := benchmark.BuildWidePreset(12, wideCorpusSeed)
	if err != nil {
		return nil, nil, err
	}
	var multi []*table.Table
	for _, s := range b.Sources {
		if strings.Contains(s.Name, "_multi_") {
			multi = append(multi, s)
		}
	}
	return b, multi, nil
}

// sourceVariants draws perBase variants of every base source from seed:
// the base source under a seeded name. Every seed thus sends different
// tables (a table's fingerprint covers its name, and so do the reclaimed
// table and the server's cache key) that cost the program the same work.
// Seeded row subsets and row orders, tried first, moved single sources'
// latency by 20-30% (Expand and traversal depend on row order), and with
// it the latency percentiles, which sit on the gaps between the few
// distinct source costs. With keyless set the variants carry no declared
// key, as a CSV client would send them, so the program mines one.
func sourceVariants(bases []*table.Table, seed int64, perBase int, keyless bool) []*table.Table {
	r := rand.New(rand.NewSource(seed))
	out := make([]*table.Table, 0, len(bases)*perBase)
	for v := 0; v < perBase; v++ {
		for _, b := range bases {
			t := b.Clone()
			t.Name = fmt.Sprintf("%s_%06x", b.Name, r.Intn(1<<24))
			if keyless {
				t.Key = nil
			}
			out = append(out, t)
		}
	}
	return out
}

// queryOrder is the closed loop's query sequence: passes over the n sources,
// each pass a fresh seeded permutation, long enough for any run.
func queryOrder(seed int64, n, passes int) []int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, 0, n*passes)
	for p := 0; p < passes; p++ {
		out = append(out, r.Perm(n)...)
	}
	return out
}

// reqKind is what one open-loop arrival asks the server for.
type reqKind int

const (
	reqMiss  reqKind = iota // a source not yet asked for at this epoch
	reqHit                  // a repeat of one asked for earlier at this epoch
	reqApply                // a churn write that rolls the epoch
)

// arrival is one open-loop request: when it is due (from the start of the
// window), what it asks for, and which source (reqMiss/reqHit) or churn
// batch (reqApply).
type arrival struct {
	due   time.Duration
	kind  reqKind
	src   int
	batch int
	seg   int // the segment of the mix it belongs to, from 0
}

// mixSpec fixes serve-large's traffic. Arrivals come in segments over a
// pool of distinct sources: every source of the pool once as a miss (a
// source not asked for yet at this epoch), hits repeats of sources already
// asked for in the segment, then one churn write that rolls the epoch. Every
// full segment thus carries the same mix of cheap and expensive sources, so
// the latency percentiles do not depend on which sources a seed happened to
// draw.
type mixSpec struct {
	rate float64 // offered arrivals per second
	hits int     // repeats per segment
}

// openLoopSchedule draws an open-loop arrival schedule for dur at mix.rate
// over a pool of pool distinct sources. Arrivals are a Poisson process
// conditioned on its count: exactly rate×dur arrivals (rounded to whole
// segments when wholeSegs is set) at independent uniform times, so the
// offered load does not vary with the seed while the spacing stays random. Within a segment the misses walk a seeded permutation of the
// pool and the hits sit at seeded positions after the first miss. firstBatch
// numbers the writes so consecutive windows never resend a batch.
func openLoopSchedule(seed int64, mix mixSpec, dur time.Duration, pool, firstBatch int, wholeSegs bool) []arrival {
	r := rand.New(rand.NewSource(seed))
	n := int(math.Round(mix.rate * dur.Seconds()))
	if seg := pool + mix.hits + 1; wholeSegs {
		n = max(1, int(math.Round(float64(n)/float64(seg)))) * seg
	}
	times := make([]float64, n)
	for i := range times {
		times[i] = r.Float64() * float64(dur)
	}
	sort.Float64s(times)
	out := make([]arrival, 0, n+pool+mix.hits+1)
	for batch := firstBatch; len(out) < n; batch++ {
		misses := r.Perm(pool)
		isHit := make([]bool, pool+mix.hits)
		for _, p := range r.Perm(pool + mix.hits - 1)[:mix.hits] {
			isHit[p+1] = true
		}
		var asked []int
		seg := batch - firstBatch
		for _, hit := range isHit {
			if hit {
				out = append(out, arrival{kind: reqHit, src: asked[r.Intn(len(asked))], seg: seg})
			} else {
				out = append(out, arrival{kind: reqMiss, src: misses[len(asked)], seg: seg})
				asked = append(asked, misses[len(asked)])
			}
		}
		out = append(out, arrival{kind: reqApply, batch: batch, seg: seg})
	}
	out = out[:n]
	for i := range out {
		out[i].due = time.Duration(times[i])
	}
	return out
}

// churnSlots is how many distinct table names the churn writes cycle
// through: the first writes add tables, later ones replace earlier churn.
const churnSlots = 24

// churnBatch draws the perBatch open-data-style tables of churn write k.
// They come from the same generator as the lake's open-data volume; tables
// the generator emits with a duplicate column are skipped, since the wire
// rightly refuses them with a 400 (see README: the generator defect). Names
// cycle through churnSlots slots, so a write either adds a table or replaces
// an earlier churn table, never a table a source was reclaimed from.
func churnBatch(seed int64, k, perBatch int) []*table.Table {
	scratch := lake.New()
	benchmark.AddOpenData(scratch, 2*perBatch+4, seed*7919+int64(k))
	var out []*table.Table
	for _, t := range scratch.Snapshot().Tables() {
		if len(out) == perBatch {
			break
		}
		if t.Validate() != nil {
			continue
		}
		c := t.Clone()
		c.Name = fmt.Sprintf("opendata_churn_%02d", (k*perBatch+len(out))%churnSlots)
		out = append(out, c)
	}
	return out
}

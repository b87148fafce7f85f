package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"
)

// sortedQuantile is the sorted-slice convention the bench code used before
// the histogram unified it: the sample at index floor(q*len), clamped.
func sortedQuantile(sorted []int64, q float64) int64 {
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sampleSets returns deterministic workloads: uniform, heavy-tailed,
// bimodal, log-normal, fixed-point stretch ratios, and constant.
func sampleSets() map[string][]int64 {
	sets := make(map[string][]int64)
	rng := rand.New(rand.NewPCG(7, 11))
	uniform := make([]int64, 20000)
	for i := range uniform {
		uniform[i] = 100 + rng.Int64N(10_000)
	}
	sets["uniform"] = uniform
	heavy := make([]int64, 20000)
	for i := range heavy {
		// exp(uniform) gives a long right tail, like miss latencies.
		heavy[i] = int64(50 * math.Exp(rng.Float64()*8))
	}
	sets["heavy_tail"] = heavy
	bimodal := make([]int64, 20000)
	for i := range bimodal {
		if rng.IntN(10) == 0 {
			bimodal[i] = 500_000 + rng.Int64N(100_000) // cache misses
		} else {
			bimodal[i] = 80 + rng.Int64N(40) // cache hits
		}
	}
	sets["bimodal"] = bimodal
	lognormal := make([]int64, 20000)
	for i := range lognormal {
		// Service latencies: the bulk near 5us, a heavy right tail.
		lognormal[i] = int64(math.Exp(rng.NormFloat64()*1.2 + 8.5))
	}
	sets["lognormal"] = lognormal
	stretch := make([]int64, 20000)
	for i := range stretch {
		// Stretch ratios 1..3 in 1e6 fixed point: every sample is >= 1e6.
		stretch[i] = int64((1 + 2*rng.Float64()) * 1e6)
	}
	sets["stretch_fixed_point"] = stretch
	sets["constant"] = []int64{1234, 1234, 1234, 1234}
	return sets
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 1023, 1024, 1025,
		1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		values = append(values, rng.Int64())
	}
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= bucketCount {
			t.Fatalf("bucketIndex(%d) = %d out of range [0, %d)", v, i, bucketCount)
		}
		lo, hi := bucketLow(i), bucketHigh(i)
		if v < lo || v > hi {
			t.Fatalf("value %d not inside its bucket %d: [%d, %d]", v, i, lo, hi)
		}
		// Bucket width bounds the relative quantile error by Resolution.
		if lo >= subBucketCount && float64(hi-lo+1) > Resolution*float64(lo)+1 {
			t.Fatalf("bucket %d too wide: [%d, %d]", i, lo, hi)
		}
	}
	// Buckets tile the non-negative range with no gaps or overlaps.
	for i := 0; i < bucketCount-1; i++ {
		if bucketHigh(i)+1 != bucketLow(i+1) {
			t.Fatalf("gap between bucket %d (high %d) and %d (low %d)",
				i, bucketHigh(i), i+1, bucketLow(i+1))
		}
	}
	if bucketHigh(bucketCount-1) != math.MaxInt64 {
		t.Fatalf("last bucket high = %d, want MaxInt64", bucketHigh(bucketCount-1))
	}
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	for name, samples := range sampleSets() {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram()
			var sum int64
			for _, v := range samples {
				h.Record(v)
				sum += v
			}
			sorted := append([]int64(nil), samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			snap := h.Snapshot()
			if snap.Count != uint64(len(samples)) || snap.Sum != sum {
				t.Fatalf("count/sum = %d/%d, want %d/%d", snap.Count, snap.Sum, len(samples), sum)
			}
			if snap.Min != sorted[0] || snap.Max != sorted[len(sorted)-1] {
				t.Fatalf("min/max = %d/%d, want %d/%d", snap.Min, snap.Max, sorted[0], sorted[len(sorted)-1])
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				got := snap.Quantile(q)
				want := sortedQuantile(sorted, q)
				// The histogram reports the rank-selected sample's bucket upper
				// bound, so it can only exceed the exact value, by at most one
				// bucket's width.
				if got < want || float64(got) > float64(want)*(1+Resolution)+1 {
					t.Fatalf("q%.3f = %d, want within [%d, %d*(1+%.4f)+1]", q, got, want, want, Resolution)
				}
			}
		})
	}
}

func TestQuantileExactBelowSubBucketRange(t *testing.T) {
	// Values below 2^subBucketBits get unit-width buckets: quantiles are exact.
	h := NewHistogram()
	samples := []int64{0, 1, 1, 2, 5, 5, 5, 9, 20, 31}
	for _, v := range samples {
		h.Record(v)
	}
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got, want := snap.Quantile(q), sortedQuantile(samples, q); got != want {
			t.Fatalf("q%.1f = %d, want exactly %d", q, got, want)
		}
	}
}

func TestNegativeValuesClampToZero(t *testing.T) {
	h := NewHistogram()
	h.Record(-50)
	h.Record(-1)
	snap := h.Snapshot()
	if snap.Count != 2 || snap.Sum != 0 || snap.Min != 0 || snap.Max != 0 {
		t.Fatalf("snapshot after negative records = %+v, want count 2, sum/min/max 0", snap)
	}
}

func TestEmptySnapshot(t *testing.T) {
	snap := NewHistogram().Snapshot()
	if snap.Count != 0 || snap.Min != 0 || snap.Max != 0 || snap.Quantile(0.5) != 0 || snap.Mean() != 0 {
		t.Fatalf("empty snapshot not all-zero: %+v", snap)
	}
}

// TestConcurrentRecordingMatchesSequential is the -race gate on the
// striped write path: N concurrent writers must produce exactly the same
// merged bucket tallies as one sequential writer recording the same
// multiset, and both must agree with the sorted reference within bucket
// resolution.
func TestConcurrentRecordingMatchesSequential(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	parts := make([][]int64, writers)
	var all []int64
	for w := range parts {
		rng := rand.New(rand.NewPCG(uint64(w), 99))
		parts[w] = make([]int64, perWriter)
		for i := range parts[w] {
			parts[w][i] = rng.Int64N(50_000_000)
		}
		all = append(all, parts[w]...)
	}

	// Force multiple stripes even on a single-core machine.
	conc := newHistogramStripes(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(vals []int64) {
			defer wg.Done()
			for _, v := range vals {
				conc.Record(v)
			}
		}(parts[w])
	}
	wg.Wait()

	seq := newHistogramStripes(1)
	for _, v := range all {
		seq.Record(v)
	}

	cs, ss := conc.Snapshot(), seq.Snapshot()
	if cs.Count != ss.Count || cs.Sum != ss.Sum || cs.Min != ss.Min || cs.Max != ss.Max {
		t.Fatalf("concurrent snapshot (count=%d sum=%d min=%d max=%d) != sequential (count=%d sum=%d min=%d max=%d)",
			cs.Count, cs.Sum, cs.Min, cs.Max, ss.Count, ss.Sum, ss.Min, ss.Max)
	}
	if cs.counts != ss.counts {
		t.Fatal("concurrent bucket tallies differ from sequential")
	}

	sorted := append([]int64(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := cs.Quantile(q), sortedQuantile(sorted, q)
		if got < want || float64(got) > float64(want)*(1+Resolution)+1 {
			t.Fatalf("q%.3f = %d, want within resolution of %d", q, got, want)
		}
	}
}

// TestMergeShardsEqualsConcatenation is the merge property gate: merging
// per-shard histograms must equal one histogram of the concatenated
// samples, bucket for bucket.
func TestMergeShardsEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.IntN(5)
		merged := NewHistogram()
		whole := NewHistogram()
		for s := 0; s < shards; s++ {
			shard := NewHistogram()
			for i, n := 0, rng.IntN(2000); i < n; i++ {
				v := rng.Int64N(1 << uint(10+rng.IntN(30)))
				shard.Record(v)
				whole.Record(v)
			}
			merged.Merge(shard)
		}
		ms, ws := merged.Snapshot(), whole.Snapshot()
		if ms.Count != ws.Count || ms.Sum != ws.Sum || ms.Min != ws.Min || ms.Max != ws.Max {
			t.Fatalf("trial %d: merged (count=%d sum=%d min=%d max=%d) != whole (count=%d sum=%d min=%d max=%d)",
				trial, ms.Count, ms.Sum, ms.Min, ms.Max, ws.Count, ws.Sum, ws.Min, ws.Max)
		}
		if ms.counts != ws.counts {
			t.Fatalf("trial %d: merged bucket tallies differ from concatenated", trial)
		}
	}
}

// TestRecordZeroAllocs pins the hot-path contract: a warm Record/Observe
// must not allocate, so instrumenting oracle.Query keeps its 0 allocs/op
// pin intact.
func TestRecordZeroAllocs(t *testing.T) {
	h := NewHistogram()
	h.Record(1)
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(4242) }); allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
	t0 := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() { h.Since(t0) }); allocs != 0 {
		t.Fatalf("Since allocates %v per op, want 0", allocs)
	}
	c := &Counter{}
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v per op, want 0", allocs)
	}
}

func TestHistogramCountAndMean(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 10; i++ {
		h.Record(i * 100)
	}
	if h.Count() != 10 {
		t.Fatalf("Count() = %d, want 10", h.Count())
	}
	if mean := h.Snapshot().Mean(); mean != 550 {
		t.Fatalf("Mean() = %v, want 550 (means are exact, from the true sum)", mean)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"ftspanner"
)

func TestPercentileIsExactRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}, {0.501, 51}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The acceptance check of the benchmark contract uses Python's
// statistics.quantiles(v, n=4); quartiles must agree with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("spread = %v, want %v", got, (12-1.5)/4)
	}
}

// fakeClock advances only when told to: by Sleep, and by the request
// function of the test.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0)}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	service := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms} // request 1 stalls
	res := openLoop(clk, clk.Now(), due, 40*ms, func(i int) bool {
		clk.t = clk.t.Add(service[i])
		return true
	})
	// Sent at 0, 10, 35 (late: the stall), 40 (late); answered at 5, 35, 40, 45.
	wantLate := []int64{0, 0, int64(15 * ms), int64(10 * ms)}
	wantLatency := []int64{int64(5 * ms), int64(25 * ms), int64(20 * ms), int64(15 * ms)}
	for i := range due {
		if res.lateNs[i] != wantLate[i] {
			t.Errorf("request %d sent %v late, want %v", i, time.Duration(res.lateNs[i]), time.Duration(wantLate[i]))
		}
		if res.latencyNs[i] != wantLatency[i] {
			t.Errorf("request %d latency %v, want %v", i, time.Duration(res.latencyNs[i]), time.Duration(wantLatency[i]))
		}
	}
	if res.backlogMax != 1 {
		t.Errorf("backlogMax = %d, want 1 (request 3 was due when request 2 went out)", res.backlogMax)
	}
	if res.elapsed != 45*ms {
		t.Errorf("elapsed = %v, want 45ms", res.elapsed)
	}
	if want := 4 / 0.045; math.Abs(res.achieved-want) > 1e-9 {
		t.Errorf("achieved = %v, want %v", res.achieved, want)
	}
	if !res.saturated {
		t.Error("a generator that ends 12 % behind its window must report saturated")
	}

	// A stall that drains before the window ends is not saturation.
	clk = &fakeClock{t: time.Unix(1000, 0)}
	res = openLoop(clk, clk.Now(), due, 100*ms, func(i int) bool {
		clk.t = clk.t.Add(service[i])
		return true
	})
	if res.saturated || res.elapsed != 100*ms {
		t.Errorf("drained backlog: saturated=%v elapsed=%v, want false and the 100ms window", res.saturated, res.elapsed)
	}
	// Wake-up jitter of the generator itself is not charged: a request sent
	// 0.1 ms after it was due is timed from the send.
	clk = &fakeClock{t: time.Unix(1000, 0)}
	res = openLoop(clk, clk.Now().Add(-100*time.Microsecond), []time.Duration{0}, 100*ms, func(int) bool {
		clk.t = clk.t.Add(5 * ms)
		return true
	})
	if res.lateNs[0] != int64(100*time.Microsecond) || res.latencyNs[0] != int64(5*ms) {
		t.Errorf("on-time request: late %v latency %v, want 100µs and 5ms", time.Duration(res.lateNs[0]), time.Duration(res.latencyNs[0]))
	}
	// An unanswered request is sent, but is not a latency sample.
	clk = &fakeClock{t: time.Unix(1000, 0)}
	res = openLoop(clk, clk.Now(), due, 100*ms, func(i int) bool {
		clk.t = clk.t.Add(service[i])
		return i != 3
	})
	if len(res.latencyNs) != 3 || len(res.lateNs) != 4 {
		t.Errorf("%d latencies and %d send times, want 3 and 4", len(res.latencyNs), len(res.lateNs))
	}
}

// Inputs are a function of the seed alone. The pinned values change only
// when a workload definition or a generator changes, which is a benchmark
// change.
func TestInputsDeterministicPerSeed(t *testing.T) {
	pinned := map[string]uint64{
		"road_hot":   0x1fdce97daa30524d,
		"road_miss":  0x57b4c2c4fc8619c9,
		"dense_cold": 0x43cff9310094f264,
		"hub_churn":  0x4d6ce5c3594a8e42,
	}
	ph := splitSeconds(defaultSeconds)
	for _, sp := range workloads {
		one, err := makeInputs(sp, 1, ph.b)
		if err != nil {
			t.Fatal(err)
		}
		again, err := makeInputs(sp, 1, ph.b)
		if err != nil {
			t.Fatal(err)
		}
		two, err := makeInputs(sp, 2, ph.b)
		if err != nil {
			t.Fatal(err)
		}
		if one.hash() != again.hash() {
			t.Errorf("%s: seed 1 gave two different inputs", sp.name)
		}
		if one.hash() == two.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", sp.name)
		}
		if one.hash() != pinned[sp.name] {
			t.Errorf("%s: seed 1 inputs hash %#x, pinned %#x", sp.name, one.hash(), pinned[sp.name])
		}
		if one.warm%one.every != 0 || one.warm < warmBatches {
			t.Errorf("%s: %d warm-up batches with -checkpoint-every %d", sp.name, one.warm, one.every)
		}
		if got := len(one.batches)/one.every - one.warm/one.every; got != sp.checkpoint {
			t.Errorf("%s: -checkpoint-every %d puts %d checkpoints in the %d batches of phase B, want %d",
				sp.name, one.every, got, len(one.batches)-one.warm, sp.checkpoint)
		}
		// The query streams are part of the inputs too.
		q1, q2 := sp.newQuery(one, one.stream(streamPhaseB)), sp.newQuery(again, again.stream(streamPhaseB))
		if q1.u != q2.u || q1.v != q2.v {
			t.Errorf("%s: phase-B stream differs between two runs of seed 1", sp.name)
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	// A weighted 6-cycle 0-1-2-3-4-5-0 with unit weights and a chord 0-3 of
	// weight 2.5.
	g := ftspanner.NewWeightedGraph(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdgeW(i, (i+1)%6, 1)
	}
	g.MustAddEdgeW(0, 3, 2.5)
	f := newFinder(g.N())
	q := &query{u: 0, v: 3, faultV: []int{1}}
	good := &queryReply{U: 0, V: 3, Reachable: true, Distance: 2.5, Path: []int{0, 3}}
	if err := checkAgainstMirror(g, f, q, good, 3); err != nil {
		t.Errorf("a right answer was rejected: %v", err)
	}
	detour := &queryReply{U: 0, V: 3, Reachable: true, Distance: 3, Path: []int{0, 5, 4, 3}}
	if err := checkAgainstMirror(g, f, q, detour, 3); err != nil {
		t.Errorf("an answer within stretch was rejected: %v", err)
	}
	for name, bad := range map[string]*queryReply{
		"wrong endpoints":    {U: 0, V: 2, Reachable: true, Distance: 2, Path: []int{0, 1, 2}},
		"failed vertex":      {U: 0, V: 3, Reachable: true, Distance: 3, Path: []int{0, 1, 2, 3}},
		"not an edge":        {U: 0, V: 3, Reachable: true, Distance: 2, Path: []int{0, 4, 3}},
		"wrong distance":     {U: 0, V: 3, Reachable: true, Distance: 2, Path: []int{0, 3}},
		"falsely cut off":    {U: 0, V: 3, Reachable: false, Distance: -1},
		"path stops short":   {U: 0, V: 3, Reachable: true, Distance: 1, Path: []int{0, 5}},
		"vertex off the end": {U: 0, V: 3, Reachable: true, Distance: 2, Path: []int{0, 9, 3}},
	} {
		if err := checkAgainstMirror(g, f, q, bad, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Stretch: with stretch 1 the 3-hop detour is too long.
	if err := checkAgainstMirror(g, f, q, detour, 1); err == nil {
		t.Error("an answer beyond stretch was accepted")
	}
	// Edge faults: the chord is down.
	qe := &query{u: 0, v: 3, faultE: [][2]int{{3, 0}}}
	if err := checkAgainstMirror(g, f, qe, good, 3); err == nil {
		t.Error("a path over a failed edge was accepted")
	}
	// A capped search may report unreachable only if G itself is far.
	capped := &query{u: 0, v: 3, maxDist: 6}
	if err := checkAgainstMirror(g, f, capped, &queryReply{U: 0, V: 3, Distance: -1}, 3); err != nil {
		t.Errorf("d_G = 2.5 > 6/3, so unreachable under the cap is right: %v", err)
	}
	capped.maxDist = 9
	if err := checkAgainstMirror(g, f, capped, &queryReply{U: 0, V: 3, Distance: -1}, 3); err == nil {
		t.Error("d_G = 2.5 <= 9/3, so unreachable under the cap is wrong, yet accepted")
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke drives all seven steps against a real child process on a
// 400-vertex lattice, timed and traced, and holds the two result shapes
// against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the default of -seconds %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here, or the reasons differ", i, w.Name, workloads[i].name)
		}
	}

	env, err := newRunEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		run  runFunc
		want []struct{ Name, Unit string }
	}{{"timed", runTimed, file.EndToEnd}, {"traced", runTraced, file.PerLayer}} {
		res, err := mode.run(env, smoke, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if !res.ok() {
			t.Errorf("%s: correct=%v failed=%d of %d saturated=%v: %v", mode.name, res.correct, res.failed, res.attempted, res.saturated, res.notes)
		}
		var want []string
		for _, m := range mode.want {
			want = append(want, m.Name)
			if got, ok := res.metrics[m.Name]; ok && got.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", mode.name, m.Name, got.Unit, m.Unit)
			}
		}
		sort.Strings(want)
		got := res.sortedNames()
		if len(got) != len(want) {
			t.Fatalf("%s run reports %d metrics %v, BENCHMARK.json lists %d %v", mode.name, len(got), got, len(want), want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: metric %q reported, %q listed", mode.name, got[i], want[i])
			}
		}
		if mode.name == "timed" {
			for name, m := range res.metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
				}
			}
		}
	}
	if left := leftovers(env.bin); len(left) > 0 {
		t.Errorf("ftserve processes left behind: %v", left)
	}
}

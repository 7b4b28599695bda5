package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: p99 of 1..1000 is 990, with exactly 10 samples beyond.
	if p, err := percentile(xs, 0.99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if p, err := percentile(xs[:20], 0.5); err != nil || p != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", p, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Fatalf("quartiles of 1..4 = %v, %v; want 1.25, 3.75", q1, q3)
	}
}

func TestQuietQuartile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} // 9 samples: the 3rd best
	if got := quietQuartile(xs, false); got != 3 {
		t.Errorf("lower-is-better quiet quartile of 1..9 = %v, want 3", got)
	}
	if got := quietQuartile(xs, true); got != 7 {
		t.Errorf("higher-is-better quiet quartile of 1..9 = %v, want 7", got)
	}
	if got := quietQuartile([]float64{5, 2}, false); got != 2 {
		t.Errorf("quiet quartile of two samples = %v, want the better, 2", got)
	}
}

func TestRankAUC(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		labels []bool
		want   float64
	}{
		// Pairs (pos, neg): (0.35,0.1)+ (0.35,0.4)- (0.8,0.1)+ (0.8,0.4)+ = 3/4.
		{"no ties", []float64{0.1, 0.4, 0.35, 0.8}, []bool{false, false, true, true}, 0.75},
		// Pairs: (0.5,0.5) tie counts 1/2, the other three are wins: 3.5/4.
		{"tie across classes", []float64{0.5, 0.5, 0.2, 0.9}, []bool{true, false, false, true}, 0.875},
		{"all tied", []float64{1, 1, 1, 1, 1}, []bool{true, false, true, false, false}, 0.5},
		{"perfect", []float64{3, 2, 1}, []bool{true, true, false}, 1},
		{"inverted", []float64{1, 2, 3}, []bool{true, true, false}, 0},
	}
	for _, c := range cases {
		got, err := rankAUC(c.scores, c.labels)
		if err != nil || got != c.want {
			t.Errorf("%s: rankAUC = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := rankAUC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("rankAUC with no negatives must fail")
	}
}

func TestLadderSearchFindsCapacity(t *testing.T) {
	// A queueing-style latency curve: 2 ms at no load, growing without
	// bound towards the 150k queries/s capacity.
	const capacity, limit = 150000.0, 20.0
	latency := func(rate float64) float64 {
		if rate >= capacity {
			return math.Inf(1)
		}
		return 2 / (1 - rate/capacity)
	}
	knee := capacity * (1 - 2/limit) // where latency reaches the limit: 135000
	for _, start := range []float64{2000, 16000, 1e6} {
		var probed []float64
		best, err := ladderSearch(start, 2, 12, 4, func(rate float64) bool {
			probed = append(probed, rate)
			return latency(rate) <= limit
		})
		if err != nil {
			t.Fatalf("start %v: %v; probed %v", start, err, probed)
		}
		if best > knee || best < knee/math.Pow(2, 1.0/16) {
			t.Fatalf("start %v: best rate %v, want within one refined rung below %v; probed %v", start, best, knee, probed)
		}
		// Before the four bisections, the last two rungs bracket the knee.
		a, b := probed[len(probed)-6], probed[len(probed)-5]
		if math.Min(a, b) > knee || math.Max(a, b) < knee {
			t.Fatalf("start %v: the ladder should stop at the rungs around the knee, probed %v", start, probed)
		}
	}

	if _, err := ladderSearch(2000, 2, 5, 4, func(float64) bool { return true }); err == nil {
		t.Fatal("a ladder that never fails must report that it did not reach capacity")
	}
	if _, err := ladderSearch(2000, 2, 5, 4, func(float64) bool { return false }); err == nil {
		t.Fatal("a ladder that never passes must report it")
	}
}

func TestBacklogged(t *testing.T) {
	steady := make([]float64, 400)
	growing := make([]float64, 400)
	for i := range steady {
		steady[i] = 2 + float64(i%7)    // stationary noise
		growing[i] = 2 + 0.2*float64(i) // the queue grows through the rung
	}
	if backlogged(steady) {
		t.Error("stationary latencies flagged as a backlog")
	}
	if !backlogged(growing) {
		t.Error("latency growing by 80 ms over the rung not flagged")
	}
}

func TestFreshness(t *testing.T) {
	msd := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	published := msd(30, 150, 210)
	// Paced at 10 steps/s from 0: due at 0, 100, 200 ms.
	due := paced(0, 10, 3)
	got, err := freshness(due, published)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{30, 50, 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("paced freshness = %v, want %v", got, want)
		}
	}
	if _, err := freshness(due, published[:2]); err == nil {
		t.Fatal("mismatched schedules must be refused")
	}
	last := lastPublishedBefore(msd(10, 20, 30), msd(5, 10, 25, 40))
	for i, w := range []int{-1, 0, 1, 2} {
		if last[i] != w {
			t.Fatalf("lastPublishedBefore = %v, want [-1 0 1 2]", last)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "engine.step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phase.a", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "phase.b", Start: 30, End: 70},  // overlaps a
		{ID: 4, Parent: 1, Name: "phase.c", Start: 90, End: 120}, // clipped at 100
	}
	st := reduceSpans(spans)
	// Children cover [0,70) and [90,100): 80 of 100 ns.
	if got := st.self["engine.step"][0]; math.Abs(got-20e-6) > 1e-12 {
		t.Fatalf("self time = %v ms, want 20 ns", got)
	}
	if got := st.dur["phase.b"][0]; math.Abs(got-40e-6) > 1e-12 {
		t.Fatalf("duration = %v ms, want 40 ns", got)
	}
}

func TestParsePprofTop(t *testing.T) {
	out := `File: perfbench
Type: cpu
Showing nodes accounting for 1500ms, 100% of 1500ms total
      flat  flat%   sum%        cum   cum%
     700ms 46.67% 46.67%      800ms 53.33%  streamgnn/internal/tensor.matMulRange
     300ms 20.00% 66.67%      300ms 20.00%  runtime.mallocgc
     200ms 13.33% 80.00%     1000ms 66.67%  streamgnn/internal/tensor.(*Matrix).Row
     100ms  6.67% 86.67%      100ms  6.67%  internal/runtime/maps.(*Map).getWithKeySmall
     100ms  6.67% 93.33%      100ms  6.67%  streamgnn/internal/core.(*Trainer).trainUnit.func1
     100ms  6.67%   100%      100ms  6.67%  sort.insertionSort
`
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tensor": 900, "runtime": 400, "core": 100, "dgnn": 0}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("module %s: %v ms, want %v", m, got[m], w)
		}
	}
}

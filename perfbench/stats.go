package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have beyond
// it: with fewer, the "tail" is one or two unlucky samples, not a tail.
const minBeyond = 10

// percentile returns the p-quantile (p in (0, 1)) of xs by the nearest-rank
// rule, refusing when fewer than minBeyond samples lie beyond it. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples is undefined", p, n)
	}
	// Nearest rank: the smallest value with at least p·n samples at or
	// below it; the samples strictly beyond it are n - rank.
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", 100*p, minBeyond, n, n-rank)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quietQuartile returns the ⌊(n−1)/4⌋-th best of xs: the value that a
// quarter of the samples beat, or the best one for fewer than five. On a
// shared machine the slow samples are those a noisy neighbour hit; the
// quieter quartile of a run's streams moves much less from run to run than
// their median.
func quietQuartile(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) - 1) / 4
	if higherIsBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// the spreads this benchmark reports match the ones computed from its output
// by that function. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// rankAUC is the ROC AUC of scores against binary labels by the rank-sum
// (Mann-Whitney) formula, tied scores sharing their average rank. It counts
// in doubled ranks so every intermediate value is an exact integer, and
// errors when either class is empty.
func rankAUC(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("rankAUC: %d scores but %d labels", len(scores), len(labels))
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var pos, neg, twiceRankSum int64
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		// Ranks i+1..j (1-based) average to (i+1+j)/2; doubled: i+1+j.
		for k := i; k < j; k++ {
			if labels[idx[k]] {
				pos++
				twiceRankSum += int64(i + 1 + j)
			} else {
				neg++
			}
		}
		i = j
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("rankAUC: %d positives and %d negatives, need both", pos, neg)
	}
	return float64(twiceRankSum-pos*(pos+1)) / float64(2*pos*neg), nil
}

// freshness returns, for each step, the time from when the step was due to
// arrive to when the snapshot containing it was published. due and published
// are offsets from a common origin; a step published before it was due (never
// the case for a real run) reads as negative and is reported as such.
func freshness(due, published []time.Duration) ([]float64, error) {
	if len(due) != len(published) {
		return nil, fmt.Errorf("freshness: %d due times but %d publish times", len(due), len(published))
	}
	out := make([]float64, len(due))
	for i := range due {
		out[i] = ms(published[i] - due[i])
	}
	return out, nil
}

// paced is the arrival schedule of a stream paced at hz steps per second
// from start.
func paced(start time.Duration, hz float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = start + time.Duration(float64(i)*float64(time.Second)/hz)
	}
	return due
}

// lastPublishedBefore returns, for each query due time, the index of the last
// step whose snapshot was published at or before it (-1 if none). published
// must be non-decreasing.
func lastPublishedBefore(published, queryDue []time.Duration) []int {
	out := make([]int, len(queryDue))
	for i, d := range queryDue {
		out[i] = sort.Search(len(published), func(k int) bool { return published[k] > d }) - 1
	}
	return out
}

// ladderSearch finds the highest offered rate that probe accepts. From
// start it climbs a geometric ladder, multiplying by factor, until a rung
// fails — or, when start itself fails, descends until one passes — taking at
// most maxRungs rungs. It then bisects the last passing and first failing
// rates geometrically refine times and returns the highest passing rate. It
// errors when the ladder runs out of rungs: a ladder that never fails did not
// reach capacity, and one that never passes found no sustainable rate.
func ladderSearch(start, factor float64, maxRungs, refine int, probe func(rate float64) bool) (float64, error) {
	pass, fail := 0.0, 0.0
	if probe(start) {
		pass = start
		for r := 1; fail == 0; r++ {
			if r == maxRungs {
				return 0, fmt.Errorf("rate ladder never failed up to %.0f/s: it does not reach capacity", pass)
			}
			if rate := pass * factor; probe(rate) {
				pass = rate
			} else {
				fail = rate
			}
		}
	} else {
		fail = start
		for r := 1; pass == 0; r++ {
			if r == maxRungs {
				return 0, fmt.Errorf("rate ladder never passed down to %.0f/s", fail)
			}
			if rate := fail / factor; probe(rate) {
				pass = rate
			} else {
				fail = rate
			}
		}
	}
	for i := 0; i < refine; i++ {
		mid := math.Sqrt(pass * fail)
		if probe(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

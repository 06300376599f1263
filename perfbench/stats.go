package main

import (
	"math"
	"sort"
)

// summary reduces a timing sample by the benchmark's percentile rule:
// the median, plus the highest reported percentile that still has at
// least minBeyond samples above it, and the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no reported percentile qualifies
	Tail    float64
}

const minBeyond = 10

// tailPcts are the percentiles the rule may report, highest first.
var tailPcts = []float64{99.9, 99, 95, 90}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = rank(s, 50)
	for _, p := range tailPcts {
		if len(s)-nearestRank(len(s), p) >= minBeyond {
			out.TailPct, out.Tail = p, rank(s, p)
			break
		}
	}
	return out
}

// nearestRank is the 1-based rank of percentile p in n sorted samples.
// The tolerance keeps float round-off in p/100·n (99.9% of 10000 is
// 9990.000000000002) from pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

func rank(sorted []float64, p float64) float64 { return sorted[nearestRank(len(sorted), p)-1] }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

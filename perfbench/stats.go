package main

import (
	"math"
	"sort"
	"time"
)

// splitmix64 is the deterministic PRNG step every benchmark stream derives
// from, the same mixer the repository's load generator uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream derives the seed of one named random stream of a run.
func stream(seed uint64, parts ...uint64) int64 {
	x := splitmix64(seed)
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return int64(x >> 1)
}

// durs is a latency sample set.
type durs []time.Duration

// quantile returns the q-quantile (nearest rank) of the samples in
// milliseconds, sorting them in place; 0 for an empty set.
func (d durs) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(d, func(i, j int) bool { return d[i] < d[j] }) {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	idx := int(math.Ceil(q*float64(len(d)))) - 1
	idx = max(0, min(idx, len(d)-1))
	return float64(d[idx]) / float64(time.Millisecond)
}

// meanMS returns the mean of the samples in milliseconds.
func (d durs) meanMS() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return float64(sum) / float64(len(d)) / float64(time.Millisecond)
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"math"
	"slices"
)

// summary is how a metric is reported: one value for the run, with the
// median, the quartiles, the extremes and the count of the rounds (or
// set-up trials) it was taken over.
//
// For an end-to-end metric the value is the quartile on the metric's better
// side — the upper quartile of a throughput, the lower quartile of a time
// or a count. The sandbox's noise is one-sided: a neighbour on the host or
// a slow stretch of the virtual disk makes rounds slower for seconds at a
// time and nothing makes them faster, so the better quartile estimates the
// undisturbed machine and repeats from run to run where the median does not
// (README.md has the measurements). Per-layer metrics describe one traced
// run and report the median.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// Values are the per-round values in the order they were measured, kept
	// in the results file so a noisy run can be looked at round by round.
	Values []float64 `json:"values,omitempty"`
}

// summarize reduces vals (at least one) to a summary. The quartiles are the
// ones Python's statistics.quantiles(vals, n=4) returns for three or more
// values. better is "higher" or "lower" for an end-to-end metric and "" to report
// the median.
func summarize(vals []float64, better string) summary {
	v := slices.Clone(vals)
	slices.Sort(v)
	s := summary{
		Median: exclusiveQuantile(v, 0.5),
		Q1:     exclusiveQuantile(v, 0.25),
		Q3:     exclusiveQuantile(v, 0.75),
		Min:    v[0],
		Max:    v[len(v)-1],
		N:      len(v),
		Values: vals,
	}
	switch better {
	case "higher":
		s.Value = s.Q3
	case "lower":
		s.Value = s.Q1
	default:
		s.Value = s.Median
	}
	return s
}

// exclusiveQuantile interpolates the q-quantile of sorted at position
// q*(n+1), clamped to the sample — the "exclusive" method.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	lo := int(math.Floor(pos))
	switch {
	case lo < 1:
		return sorted[0]
	case lo >= n:
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// spread is the run's own resolution as a share of the value: for a better
// quartile, how far the best round lies from it; for a median, the
// interquartile range.
func (s summary) spread(better string) float64 {
	if s.Value == 0 {
		return 0
	}
	width := s.Q3 - s.Q1
	switch better {
	case "higher":
		width = s.Max - s.Value
	case "lower":
		width = s.Value - s.Min
	}
	return width / math.Abs(s.Value)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending latency sample: the smallest value with at least p percent of
// the sample at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func meanInt64(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}

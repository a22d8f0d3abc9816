package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([10, 9, ..., 1], n=4) == [2.75, 5.5, 8.25].
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(vals, "")
	want := summary{Value: 5.5, Median: 5.5, Q1: 2.75, Q3: 8.25, Min: 1, Max: 10, N: 10, Values: vals}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if got := s.spread(""); got != 1 {
		t.Errorf("spread of a median = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	if s := summarize([]float64{3, 1, 2}, ""); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("three samples: %+v", s)
	}
	if s := summarize([]float64{4, 1, 3, 2}, ""); s.Median != 2.5 {
		t.Errorf("median of four = %v, want 2.5", s.Median)
	}
	if s := summarize([]float64{7}, "lower"); s.Q1 != 7 || s.Value != 7 || s.Q3 != 7 || s.N != 1 {
		t.Errorf("one sample: %+v", s)
	}
}

// An end-to-end metric reports the quartile on its better side, and its
// spread is the distance from there to the best round.
func TestSummarizeReportsTheBetterQuartile(t *testing.T) {
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hi := summarize(vals, "higher")
	if hi.Value != 8.25 {
		t.Errorf("higher is better: value %v, want the upper quartile 8.25", hi.Value)
	}
	if got, want := hi.spread("higher"), (10-8.25)/8.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("higher is better: spread %v, want %v", got, want)
	}
	lo := summarize(vals, "lower")
	if lo.Value != 2.75 {
		t.Errorf("lower is better: value %v, want the lower quartile 2.75", lo.Value)
	}
	if got, want := lo.spread("lower"), (2.75-1)/2.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("lower is better: spread %v, want %v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, c := range []struct {
		sample []int64
		p      float64
		want   int64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred[:10], 99, 10},
		{hundred[:10], 50, 5},
		{hundred[:1], 99, 1},
		{nil, 50, 0},
	} {
		if got := percentile(c.sample, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %d, want %d", len(c.sample), c.p, got, c.want)
		}
	}
}

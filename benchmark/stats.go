package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every metric is reported: the median over repetitions with
// its quartiles and the number of samples behind it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile range as a fraction of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// summarize reduces per-repetition samples to median and quartiles. The
// quartiles follow Python's statistics.quantiles(values, n=4) (the exclusive
// method), so a spread computed from this output matches one computed by a
// script over the raw values.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		Median: quantileExclusive(s, 0.5),
		Q1:     quantileExclusive(s, 0.25),
		Q3:     quantileExclusive(s, 0.75),
		N:      len(s),
	}
}

// quantileExclusive interpolates the p-quantile of sorted data at rank
// p*(n+1), clamped to the data's range.
func quantileExclusive(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func median(samples []float64) float64 { return summarize(samples).Median }

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of samples
// pooled over repetitions; it sorts its argument in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := max(int(math.Ceil(p/100*float64(len(samples)))), 1)
	return samples[rank-1]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms and us are a duration in the units the metrics are reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

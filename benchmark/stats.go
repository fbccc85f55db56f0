package main

import (
	"math"
	"sort"
)

// summary is a timing's median and quartiles over n samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive" method),
// so numbers printed here match a reviewer's own spread computation. A
// single sample is its own median and quartiles; no samples give NaNs.
func summarize(values []float64) summary {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	case 1:
		return summary{Median: xs[0], Q1: xs[0], Q3: xs[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

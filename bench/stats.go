package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness will print it: a p90 over 50 samples is decided by five of them.
const minBeyond = 10

// supportsPercentile reports whether n samples leave at least minBeyond
// beyond percentile p.
func supportsPercentile(n int, p float64) bool {
	// Scaled to integers: n*(1-p/100) in floating point makes 100 samples
	// fall just short of ten beyond p90.
	return n*int(math.Round(1000-p*10)) >= minBeyond*1000
}

// timings collects latency samples in milliseconds.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile returns percentile p of the samples (linear interpolation
// between closest ranks) and refuses when fewer than minBeyond samples lie
// beyond it.
func (t timings) percentile(p float64) (float64, error) {
	if !supportsPercentile(len(t), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all", p, minBeyond, len(t))
	}
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return quantileSorted(s, p/100), nil
}

func (t timings) sum() float64 {
	total := 0.0
	for _, v := range t {
		total += v
	}
	return total
}

// quantileSorted interpolates quantile q (0..1) of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// lowerQuartile interpolates the 25th percentile.
func lowerQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.25)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance rule for run-to-run spread is written against.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

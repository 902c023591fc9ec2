package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles tail() may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailStat is a tail percentile reported with the evidence behind it.
type tailStat struct {
	Q      float64 // the percentile actually reported (0.99 = p99)
	Value  float64
	N      int // sample count
	Beyond int // samples strictly above the percentile's rank
}

// label renders the percentile as "p99", "p99.9", "p95".
func (t tailStat) label() string {
	return "p" + trimFloat(t.Q*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// tail reports the highest percentile of tailLadder no higher than
// maxQ that has at least ten samples beyond it, plus the sample count.
// With fewer than eleven samples it falls back to the median.
func tail(xs []float64, maxQ float64) tailStat {
	s := sortedCopy(xs)
	n := len(s)
	for _, q := range tailLadder {
		if q > maxQ {
			continue
		}
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 || q == 0.5 {
			return tailStat{Q: q, Value: quantile(s, q), N: n, Beyond: n - rank}
		}
	}
	return tailStat{Q: 0.5, Value: quantile(s, 0.5), N: n}
}

// quietShare is the least share of a phase's jobs that quietJobs
// returns.
const quietShare = 0.25

// quietJobs returns the jobs due in the phase's quietest steal windows,
// and the highest host steal share among those windows. It takes every
// window whose steal share is at most a threshold, the lowest one at
// which the windows hold at least quietShare of the jobs; on a host
// that steals nothing that is every window, so every job. Host steal
// (time the machine's CPUs were wanted but ran another guest) comes in
// bursts, and a job's wall time is inflated by every hop it makes
// while the host is stealing.
func quietJobs(jobs []*jobRec, samples []stealSample) ([]*jobRec, float64) {
	if len(samples) < 2 {
		return jobs, math.NaN()
	}
	share := make([]float64, len(samples)-1)
	for i := range share {
		a, b := samples[i], samples[i+1]
		if b.Total > a.Total {
			share[i] = float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
		}
	}
	// window returns the steal window j falls in: before the first
	// sample counts as the first window, after the last as the last.
	window := func(j *jobRec) int {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].At.After(j.Due) }) - 1
		return min(max(i, 0), len(share)-1)
	}
	perWindow := make([]int, len(share))
	for _, j := range jobs {
		perWindow[window(j)]++
	}
	levels := sortedCopy(share)
	threshold := levels[len(levels)-1]
	for _, lv := range levels {
		n := 0
		for i, s := range share {
			if s <= lv {
				n += perWindow[i]
			}
		}
		if float64(n) >= quietShare*float64(len(jobs)) {
			threshold = lv
			break
		}
	}
	var out []*jobRec
	for _, j := range jobs {
		if share[window(j)] <= threshold {
			out = append(out, j)
		}
	}
	return out, threshold
}

// littleWaitMS derives the mean queue wait from Little's law: the mean
// number of jobs waiting (sampled queue depths) divided by the rate at
// which jobs pass through, in milliseconds.
func littleWaitMS(depthSamples []float64, jobsPerSec float64) float64 {
	if len(depthSamples) == 0 || jobsPerSec <= 0 {
		return 0
	}
	sum := 0.0
	for _, d := range depthSamples {
		sum += d
	}
	return sum / float64(len(depthSamples)) / jobsPerSec * 1000
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if len(x) < 2 || len(x) != len(y) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	d := n*sxx - sx*sx
	if d == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / d
}

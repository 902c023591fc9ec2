package main

import (
	"fmt"
	"math"
	"time"
)

// runSet is one pass over a workload: one daemon lifetime per round of
// its inputs. The open-loop workloads have one round; new-designs has
// one per roundSeconds of --seconds, each on a fresh daemon, and
// reports its rounds pooled (see endToEnd) or the median round.
type runSet []*runResult

// measureAll runs every round of in; the ladder follows the last one.
func measureAll(w workloadDef, in *inputs, bin, outDir string, traced bool, ck *checker) (runSet, error) {
	var rs runSet
	for i, round := range in.Rounds {
		var tr *tracer
		if traced {
			tr = &tracer{round: i}
		}
		var ladder [][]request
		if i == len(in.Rounds)-1 {
			ladder = in.Ladder
		}
		r, err := measure(w, in.Warmup, round, ladder, bin, outDir, tr, ck)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// combine merges per-round metric lists (same names, same order) into
// one: the median value over the rounds that measured it, the summed
// sample count.
func combine(rounds [][]metric) []metric {
	if len(rounds) == 1 {
		return rounds[0]
	}
	out := make([]metric, len(rounds[0]))
	for i := range out {
		m := rounds[0][i]
		var vals []float64
		n := 0
		for _, r := range rounds {
			if !math.IsNaN(r[i].Value) {
				vals = append(vals, r[i].Value)
			}
			n += r[i].N
		}
		if len(vals) > 0 {
			m.Value = median(vals)
			m.Note = fmt.Sprintf("median of %d rounds", len(rounds)) + map[bool]string{true: "; " + m.Note}[m.Note != ""]
		}
		m.N = n
		out[i] = m
	}
	return out
}

// endToEnd returns the gated metrics and the printed-only ones.
func (rs runSet) endToEnd() (gated, info []metric) {
	var gs, is [][]metric
	for _, r := range rs {
		g, i := r.endToEnd()
		gs, is = append(gs, g), append(is, i)
	}
	gated, info = combine(gs), combine(is)
	if len(rs) == 1 {
		return gated, info
	}
	// The setup figure is the median over every set-up of the pass.
	// Throughput, CPU and the latency median pool the rounds' jobs: a
	// round's figures turn on how its few long compiles overlap, and
	// the pooled ratio of the rounds steadies them more than the
	// median round does.
	var setups, lat []float64
	var done int
	var wall, cpu time.Duration
	for _, r := range rs {
		setups = append(setups, r.setupS...)
		l, _ := latenciesMS(r.main.Jobs)
		lat = append(lat, l...)
		done += r.main.completed()
		wall += r.main.wall()
		cpu += r.main.DaemonCPU
	}
	note := fmt.Sprintf("%d rounds pooled", len(rs))
	for i := range gated {
		m := &gated[i]
		switch m.Name {
		case "setup_s":
			m.Value, m.N, m.Note = median(setups), len(setups), "median of set-ups"
		case "jobs_per_s":
			m.Value, m.N, m.Note = float64(done)/wall.Seconds(), done, note+"; closed loop"
		case "cpu_ms_per_job":
			m.Value, m.N, m.Note = float64(cpu.Nanoseconds())/1e6/float64(max(done, 1)), done, note
		case "lat_p50_ms":
			m.Value, m.N, m.Note = median(lat), len(lat), note
		}
	}
	return gated, info
}

// serveLayers combines the per-round client- and /metrics-side layer
// metrics.
func (rs runSet) serveLayers() []metric {
	var ls [][]metric
	for _, r := range rs {
		ls = append(ls, r.serveLayers())
	}
	return combine(ls)
}

// counts sums attempts, unexpected failures and wrong results.
func (rs runSet) counts() (attempted, failed, wrong int) {
	for _, r := range rs {
		a, f, w := r.counts()
		attempted, failed, wrong = attempted+a, failed+f, wrong+w
	}
	return attempted, failed, wrong
}

// report prints each round's failures and driver validity.
func (rs runSet) report() {
	for i, r := range rs {
		if len(rs) > 1 {
			p := r.main
			lat, _ := latenciesMS(p.Jobs)
			done := p.completed()
			fmt.Printf("round %d: %.4f jobs/s, lat p50 %.4f ms, cpu %.4f ms/job, host steal %.3f\n", i,
				float64(done)/p.wall().Seconds(), median(lat), float64(p.DaemonCPU.Nanoseconds())/1e6/float64(max(done, 1)), p.StealShare)
		}
		r.printFailures()
		r.printValidity()
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// runResult is one daemon lifetime: set-up, measured phase, ladder.
type runResult struct {
	w        workloadDef
	tr       *tracer
	setupS   []float64
	warmup   []*jobRec
	main     *phase
	ladder   []*phase
	sloJobsS float64
	sloNote  string
	hwmKB    float64 // VmHWM at the end of the measured phase
	before   snapshot
	after    snapshot
}

// snapshot is the daemon's counters at one instant.
type snapshot struct {
	Series map[string]float64
	Boards []boardInfo
}

// boardInfo is the part of a GET /v1/boards entry the driver reads.
type boardInfo struct {
	Node            int    `json:"node"`
	ID              int    `json:"id"`
	State           string `json:"state"`
	QueueDepth      int    `json:"queue_depth"`
	JobsDone        int64  `json:"jobs_done"`
	JobsFailed      int64  `json:"jobs_failed"`
	WarmResets      int64  `json:"warm_resets"`
	ColdResets      int64  `json:"cold_resets"`
	Compactions     int64  `json:"compactions"`
	CompactionMoved int64  `json:"compaction_moved"`
}

func takeSnapshot(c *client) (snapshot, error) {
	var s snapshot
	r := c.do("GET", "/metrics", nil)
	if r.Err != nil || r.Code != 200 {
		return s, fmt.Errorf("GET /metrics: %v %d", r.Err, r.Code)
	}
	s.Series = parseMetrics(r.Body)
	b := c.do("GET", "/v1/boards", nil)
	if b.Err != nil || b.Code != 200 {
		return s, fmt.Errorf("GET /v1/boards: %v %d", b.Err, b.Code)
	}
	return s, json.Unmarshal(b.Body, &s.Boards)
}

// closedBudget caps a closed-loop round, three to four times what it
// takes on a healthy tree, so a much slower daemon still ends the run
// in time.
const closedBudget = 24 * time.Second

// setupRepeats is how many times a run sets the daemon up; setup_s is
// the median, and the last daemon serves the measured phase.
func setupRepeats(w workloadDef) int {
	if w.Warmup {
		return 9
	}
	return 11
}

// measure runs one daemon lifetime: set-ups with warm-up, the measured
// requests, then the ladder steps (nil skips the probe), and checks
// every result with ck.
func measure(w workloadDef, warmup, main []request, ladder [][]request, bin, outDir string, tr *tracer, ck *checker) (*runResult, error) {
	r := &runResult{w: w, tr: tr}
	runDir := filepath.Join(outDir, "run")
	var d *daemon
	for i := 0; i < setupRepeats(w); i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		start := time.Now()
		if d, err = startDaemon(bin, runDir, w.Flags); err != nil {
			return nil, err
		}
		c := newClient(d.base, nil)
		r.warmup, err = runSerial(c, warmup)
		c.close()
		if err != nil {
			d.stop()
			return nil, err
		}
		// Set-up time: exec to healthy, plus the pinned warm-up.
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	defer d.stop()

	if tr != nil {
		tr.epoch = time.Now()
	}
	clients := []*client{newClient(d.base, tr), newClient(d.base, tr)}[:maxProcs]
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	var err error
	if r.before, err = takeSnapshot(clients[0]); err != nil {
		return nil, err
	}
	var completed atomic.Int64
	sc := startScraper(clients[0], d.pid(), tr != nil, &completed)
	if w.OpenRate > 0 {
		r.main = runOpen(d, clients[0], clients[len(clients)-1], main, &completed)
	} else {
		r.main = runClosed(d, clients, main, closedBudget, &completed)
	}
	r.main.Scrapes = sc.stop()
	if r.after, err = takeSnapshot(clients[0]); err != nil {
		return nil, err
	}
	if r.hwmKB, err = procStatusKB(d.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	if _, failed, _ := r.counts(); len(ladder) > 0 && failed == 0 {
		r.runLadder(d, clients, ladder)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	for _, jobs := range append([][]*jobRec{r.warmup, r.main.Jobs}, r.ladderJobs()...) {
		if err := ck.check(jobs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *runResult) ladderJobs() [][]*jobRec {
	var out [][]*jobRec
	for _, p := range r.ladder {
		out = append(out, p.Jobs)
	}
	return out
}

// runLadder climbs the offered-rate ladder until a step misses the
// limit: a failed or refused job, p99 above sloLimitMS, or a backlog
// (the last quarter of the step's jobs slower than the limit at p50).
func (r *runResult) runLadder(d *daemon, clients []*client, ladder [][]request) {
	var completed atomic.Int64
	r.sloNote = "no step met the limit"
	for i, step := range ladder {
		time.Sleep(200 * time.Millisecond)
		p := runOpen(d, clients[0], clients[len(clients)-1], step, &completed)
		r.ladder = append(r.ladder, p)
		lat, bad := latenciesMS(p.Jobs)
		q := quarterLatenciesMS(p.Jobs)
		p99 := quantile(sortedCopy(lat), 0.99)
		rate := r.w.Ladder[i]
		fmt.Printf("ladder %6.0f jobs/s: n=%d p99=%.2fms last-quarter p50=%.2fms failed=%d\n",
			rate, len(lat), p99, median(q), bad)
		if bad > 0 || len(lat) == 0 || p99 > sloLimitMS || median(q) > sloLimitMS {
			return
		}
		r.sloJobsS = rate
		r.sloNote = fmt.Sprintf("p99 %.2fms <= %dms at %.0f jobs/s offered", p99, sloLimitMS, rate)
	}
}

// latenciesMS returns the latencies of jobs that reached a terminal
// state (failed-as-expected included) and the count of the others.
func latenciesMS(jobs []*jobRec) (lat []float64, bad int) {
	for _, j := range jobs {
		if j.Cause == "" || j.Cause == causeJobFailed {
			lat = append(lat, float64(j.latency().Nanoseconds())/1e6)
		} else {
			bad++
		}
	}
	return lat, bad
}

func quarterLatenciesMS(jobs []*jobRec) []float64 {
	lat, _ := latenciesMS(jobs[len(jobs)*3/4:])
	return lat
}

// counts returns attempted jobs, failures the run should not have
// (anything except a job failing exactly as its reference does), and
// wrong results. Warm-up and ladder probes are not attempts of the
// measured phase; a ladder step above capacity is expected to refuse.
func (r *runResult) counts() (attempted, failed, wrong int) {
	for _, jobs := range append([][]*jobRec{r.warmup, r.main.Jobs}, r.ladderJobs()...) {
		for _, j := range jobs {
			if j.Cause == causeWrong {
				wrong++
			}
		}
	}
	for _, j := range r.main.Jobs {
		attempted++
		if j.Cause != "" && j.Cause != causeJobFailed {
			failed++
		}
	}
	return attempted, failed, wrong
}

// Driver limits: past either, the driver rather than the daemon may be
// what the run measured.
const (
	maxDriverCPUShare = 0.5
	maxDriverLagP50MS = 1.0
)

// driverLoad returns how late the driver submitted (open loop) and the
// share of its CPU budget it used during the measured phase.
func (r *runResult) driverLoad() (lag tailStat, cpuShare float64) {
	p := r.main
	return tail(p.LagMS, 0.99), p.DriverCPU.Seconds() / (p.wall().Seconds() * float64(maxProcs))
}

// printValidity marks a run where the driver was the bottleneck.
func (r *runResult) printValidity() {
	lag, cpuShare := r.driverLoad()
	verdict := "valid"
	lagNote := "closed loop, no schedule"
	lagP50 := 0.0
	if len(r.main.LagMS) > 0 {
		lagP50 = median(r.main.LagMS)
		lagNote = fmt.Sprintf("submit lag p50 %.3fms, limit %.1fms; %s %.3fms", lagP50, maxDriverLagP50MS, lag.label(), lag.Value)
	}
	if cpuShare > maxDriverCPUShare || lagP50 > maxDriverLagP50MS {
		verdict = "INVALID, the driver was the bottleneck"
	}
	fmt.Printf("run: %s (driver CPU share %.3f, limit %.1f; %s; host steal %.3f)\n",
		verdict, cpuShare, maxDriverCPUShare, lagNote, r.main.StealShare)
}

// printFailures prints failures by cause, against attempts.
func (r *runResult) printFailures() {
	byCause := map[string]int{}
	detail := map[string]string{}
	total := 0
	for _, j := range r.main.Jobs {
		if j.Cause != "" {
			total++
			byCause[j.Cause]++
			if _, ok := detail[j.Cause]; !ok {
				detail[j.Cause] = j.Detail
			}
		}
	}
	causes := make([]string, 0, len(byCause))
	for c := range byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	fmt.Printf("failures: %d of %d attempted\n", total, len(r.main.Jobs))
	for _, c := range causes {
		fmt.Printf("  %-18s %6d  e.g. %s\n", c, byCause[c], detail[c])
	}
	for i, p := range r.ladder {
		n := 0
		for _, j := range p.Jobs {
			if j.Cause != "" {
				n++
			}
		}
		if n > 0 {
			fmt.Printf("  ladder step %.0f jobs/s: %d of %d failed or refused\n", r.w.Ladder[i], n, len(p.Jobs))
		}
	}
}

// endToEnd computes every end-to-end metric of the run. The gated
// ones are in BENCHMARK.json; the others are printed only: on a shared
// 2-CPU virtual machine the spread of lat_p99_ms and scrape_p50_ms
// across runs exceeds the largest bound a gated metric may have,
// failed_share is 0 on a healthy workload, and slo_jobs_s exists on
// warm-mix alone.
func (r *runResult) endToEnd() (gated, info []metric) {
	p := r.main
	done := p.completed()
	var scrapes []float64
	for _, s := range p.Scrapes {
		scrapes = append(scrapes, s.RTTms)
	}
	failed := 0
	for _, j := range p.Jobs {
		if j.Cause != "" {
			failed++
		}
	}
	lat, _ := latenciesMS(p.Jobs)
	t := tail(lat, 0.99)
	// Open loop, the jobs of a window are a draw from the schedule, so
	// the quiet windows' jobs are a fair sample; closed loop, what a
	// window holds depends on how long the jobs before it took.
	quietLat, latNote := lat, ""
	if r.w.OpenRate > 0 {
		quiet, steal := quietJobs(p.Jobs, p.Steal)
		quietLat, _ = latenciesMS(quiet)
		latNote = fmt.Sprintf("jobs due in the %v windows with host steal <= %.3f; all %d jobs: %.4f ms", stealWindow, steal, len(lat), median(lat))
	}
	loop := "closed loop"
	if r.w.OpenRate > 0 {
		loop = fmt.Sprintf("open loop at %.0f jobs/s", r.w.OpenRate)
	}
	gated = []metric{
		{Name: "setup_s", Unit: "s", Value: median(r.setupS), N: len(r.setupS), Note: "median of set-ups"},
		{Name: "jobs_per_s", Unit: "jobs/s", Value: float64(done) / p.wall().Seconds(), N: done, Note: loop},
		{Name: "lat_p50_ms", Unit: "ms", Value: median(quietLat), N: len(quietLat), Note: latNote},
		{Name: "cpu_ms_per_job", Unit: "ms", Value: float64(p.DaemonCPU.Nanoseconds()) / 1e6 / float64(max(done, 1)), N: done},
		{Name: "rss_mb", Unit: "MiB", Value: r.hwmKB / 1024, Note: "VmHWM after the measured phase"},
	}
	const notGated = "reported, not gated"
	info = []metric{
		{Name: "lat_p99_ms", Unit: "ms", Value: t.Value, N: t.N, Note: fmt.Sprintf("%s, %d beyond; %s", t.label(), t.Beyond, notGated)},
		{Name: "scrape_p50_ms", Unit: "ms", Value: median(scrapes), N: len(scrapes), Note: notGated},
		{Name: "failed_share", Unit: "ratio", Value: float64(failed) / float64(len(p.Jobs)), N: len(p.Jobs), Note: notGated},
	}
	if len(r.w.Ladder) > 0 {
		note := r.sloNote
		if len(r.ladder) == 0 {
			note = "ladder skipped: the measured phase had failures"
		}
		info = append(info, metric{Name: "slo_jobs_s", Unit: "jobs/s", Value: r.sloJobsS, N: len(r.ladder), Note: note + "; " + notGated})
	} else {
		info = append(info, metric{Name: "slo_jobs_s", Unit: "jobs/s", Value: math.NaN(), Note: "n/a: no ladder on this workload; " + notGated})
	}
	return gated, info
}

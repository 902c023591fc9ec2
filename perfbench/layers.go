package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/techmap"
	"repro/internal/workload"
)

// Layer names the per-layer metrics are keyed by.
var (
	scenarioNames = workload.Scenarios()
	managerNames  = []string{"dynamic", "partition", "amorphous"}
)

const (
	maxBoards           = 4   // serve.board_busy_share.<b> covers boards 0..3 (flat fleet index)
	maxCompileKeys      = 16  // distinct compile keys replayed through the stage functions
	compileReps         = 3   // replays per compile key; the best is kept
	maxSpecsPerScenario = 16  // distinct specs timed through Spec.Build
	coldWarmJobs        = 3   // jobs per side in serve.BenchColdVsWarm
	handlerJobs         = 300 // measured requests replayed through the in-process handler
	handlerJobsCold     = 40  // on new-designs, whose jobs compile
)

func na(name, unit, why string) metric {
	return metric{Name: name, Unit: unit, Value: math.NaN(), Note: "n/a: " + why}
}

// serveLayers derives the client- and /metrics-side layer metrics of
// the traced run.
func (r *runResult) serveLayers() []metric {
	p := r.main
	w := r.w
	done := p.completed()
	jps := float64(done) / p.wall().Seconds()
	polled := 0
	var selfMS []float64
	reqTime := map[string]time.Duration{}
	for _, j := range p.Jobs {
		if j.Polls > 0 {
			polled++
		}
	}
	// A job's self time is its span minus the request spans under it:
	// the time no request of the driver was in flight for it.
	for _, s := range r.spans() {
		if s.Job != "" && (s.Name == "submit" || s.Name == "poll") {
			reqTime[s.Job] += time.Duration(s.End - s.Start)
		}
	}
	for _, j := range p.Jobs {
		if j.ID != "" && !j.Done.IsZero() && (j.Cause == "" || j.Cause == causeJobFailed) {
			selfMS = append(selfMS, float64((j.latency()-reqTime[j.ID]).Nanoseconds())/1e6)
		}
	}
	var scrapeBytes, depth, rssKB, rssJobs []float64
	busy := make([]float64, maxBoards)
	nb := 0
	for _, s := range p.Scrapes {
		scrapeBytes = append(scrapeBytes, float64(s.Bytes))
		rssKB = append(rssKB, s.RSSKB)
		rssJobs = append(rssJobs, float64(s.Completed))
		if len(s.Boards) > 0 {
			nb++
			q := 0
			for _, b := range s.Boards {
				q += b.QueueDepth
				if i := w.boardIndex(b.Node, b.ID); i >= 0 && i < maxBoards && b.State == "busy" {
					busy[i]++
				}
			}
			depth = append(depth, float64(q))
		}
	}
	ms := []metric{
		{Name: "serve.submit_rtt_p50_us", Unit: "us", Value: median(p.IO.SubmitRTT), N: len(p.IO.SubmitRTT)},
		{Name: "serve.status_rtt_p50_us", Unit: "us", Value: median(p.IO.StatusRTT), N: len(p.IO.StatusRTT)},
		{Name: "serve.status_bytes", Unit: "B", Value: float64(p.IO.StatusBytes) / float64(max(p.IO.Polls, 1)), N: int(p.IO.Polls), Note: "mean per status reply"},
		{Name: "serve.polls_per_job", Unit: "count", Value: float64(p.IO.Polls) / float64(max(polled, 1)), N: polled},
		{Name: "serve.poll_hit_ratio", Unit: "ratio", Value: float64(p.IO.Hits) / float64(max(p.IO.Polls, 1)), N: int(p.IO.Polls), Note: "terminal polls / polls"},
		{Name: "serve.job_self_ms", Unit: "ms", Value: median(selfMS), N: len(selfMS), Note: "p50 of job span minus its request spans"},
		{Name: "serve.scrape_bytes", Unit: "B", Value: median(scrapeBytes), N: len(scrapeBytes)},
		{Name: "serve.rss_kb_per_job", Unit: "KiB", Value: slope(rssJobs, rssKB), N: len(rssKB), Note: "VmRSS slope against completed jobs"},
		{Name: "serve.queue_wait_ms", Unit: "ms", Value: littleWaitMS(depth, jps), N: len(depth), Note: "Little's law: mean queued / throughput"},
	}
	for b := 0; b < maxBoards; b++ {
		name := fmt.Sprintf("serve.board_busy_share.%d", b)
		if b >= len(w.Boards) {
			ms = append(ms, na(name, "ratio", fmt.Sprintf("the daemon has %d boards", len(w.Boards))))
			continue
		}
		ms = append(ms, metric{Name: name, Unit: "ratio", Value: busy[b] / float64(max(nb, 1)), N: nb, Note: "share of /v1/boards samples busy"})
	}

	// Board counters, before vs. after the measured phase.
	var jobs, warm, cold, compactions, moved float64
	perBoard := map[int]float64{}
	for _, b := range r.after.Boards {
		i := w.boardIndex(b.Node, b.ID)
		d := b.JobsDone + b.JobsFailed
		for _, a := range r.before.Boards {
			if a.Node == b.Node && a.ID == b.ID {
				d -= a.JobsDone + a.JobsFailed
				warm -= float64(a.WarmResets)
				cold -= float64(a.ColdResets)
				compactions -= float64(a.Compactions)
				moved -= float64(a.CompactionMoved)
			}
		}
		perBoard[i] += float64(d)
		jobs += float64(d)
		warm += float64(b.WarmResets)
		cold += float64(b.ColdResets)
		compactions += float64(b.Compactions)
		moved += float64(b.CompactionMoved)
	}
	shareMax := 0.0
	for _, v := range perBoard {
		shareMax = math.Max(shareMax, v/math.Max(jobs, 1))
	}
	queueFull := 0
	for _, ph := range append([]*phase{r.main}, r.ladder...) {
		for _, j := range ph.Jobs {
			if j.Cause == causeQueueFull {
				queueFull++
			}
		}
	}
	failedJobs := 0
	for _, j := range p.Jobs {
		if j.Cause == causeJobFailed {
			failedJobs++
		}
	}
	ms = append(ms,
		metric{Name: "serve.board_job_share_max", Unit: "ratio", Value: shareMax, N: int(jobs)},
		metric{Name: "serve.queue_full_total", Unit: "count", Value: float64(queueFull), Note: "429 queue-full, measured phase and ladder"},
		metric{Name: "serve.jobs_failed", Unit: "count", Value: float64(failedJobs), Note: "jobs failed exactly as their reference"},
		metric{Name: "serve.warm_reset_share", Unit: "ratio", Value: warm / math.Max(warm+cold, 1), N: int(warm + cold)},
		metric{Name: "serve.compactions", Unit: "count", Value: compactions},
		metric{Name: "serve.compaction_moved", Unit: "count", Value: moved},
	)

	// Compile cache: exposed on a single-node daemon's /metrics only.
	const lookups = "vfpgad_compile_cache_lookups_total"
	if _, ok := r.after.Series[lookups+`{result="miss"}`]; ok {
		delta := func(res string) float64 {
			k := lookups + `{result="` + res + `"}`
			return r.after.Series[k] - r.before.Series[k]
		}
		miss, hit, dedup := delta("miss"), delta("hit"), delta("dedup")
		all := miss + hit + dedup
		ms = append(ms,
			metric{Name: "compile.misses", Unit: "count", Value: miss, N: int(all)},
			metric{Name: "compile.miss_share", Unit: "ratio", Value: miss / math.Max(all, 1), N: int(all)},
			metric{Name: "compile.misses_per_job", Unit: "count", Value: miss / math.Max(float64(len(p.Jobs)), 1), N: len(p.Jobs)},
			metric{Name: "compile.dedups", Unit: "count", Value: dedup},
		)
	} else {
		why := "the fleet front-end does not export the compile cache"
		ms = append(ms, na("compile.misses", "count", why), na("compile.miss_share", "ratio", why),
			na("compile.misses_per_job", "count", why), na("compile.dedups", "count", why))
	}

	var ledger int64
	for _, j := range p.Jobs {
		ledger += j.LedgerOps
	}
	ms = append(ms, metric{Name: "core.ledger_ops_per_job", Unit: "count", Value: float64(ledger) / float64(max(done, 1)), N: done, Note: "from job results"})

	// Fleet routing.
	if r.w.Boards[0].Node >= 0 {
		const routed = "vfpgad_fleet_routed_total"
		total := sumSeries(r.after.Series, routed) - sumSeries(r.before.Series, routed)
		for n := 0; n < 2; n++ {
			l := fmt.Sprintf(`node="%d"`, n)
			v := sumSeries(r.after.Series, routed, l) - sumSeries(r.before.Series, routed, l)
			ms = append(ms, metric{Name: fmt.Sprintf("fleet.routed_share.%d", n), Unit: "ratio", Value: v / math.Max(total, 1), N: int(total)})
		}
		const rr = "vfpgad_fleet_reroutes_total"
		ms = append(ms,
			metric{Name: "fleet.reroutes", Unit: "count", Value: sumSeries(r.after.Series, rr) - sumSeries(r.before.Series, rr)},
			metric{Name: "fleet.placement_score_p50", Unit: "score", Value: sumSeries(r.after.Series, "vfpgad_fleet_placement_score", `quantile="0.5"`), Note: "daemon lifetime"},
		)
	} else {
		why := "single-node daemon"
		ms = append(ms, na("fleet.routed_share.0", "ratio", why), na("fleet.routed_share.1", "ratio", why),
			na("fleet.reroutes", "count", why), na("fleet.placement_score_p50", "score", why))
	}

	// The driver itself.
	lag, cpuShare := r.driverLoad()
	if r.w.OpenRate > 0 {
		ms = append(ms, metric{Name: "driver.lag_p99_ms", Unit: "ms", Value: lag.Value, N: lag.N, Note: lag.label() + " of submit time minus due time"})
	} else {
		ms = append(ms, na("driver.lag_p99_ms", "ms", "closed loop has no schedule"))
	}
	ms = append(ms, metric{Name: "driver.cpu_share", Unit: "ratio", Value: cpuShare, Note: "driver CPU / (wall x GOMAXPROCS)"})
	return ms
}

// spans returns the traced run's spans (none when untraced).
func (r *runResult) spans() []span {
	if r.tr == nil {
		return nil
	}
	return r.tr.spans
}

// replayLayers times the run's distinct inputs through the layers'
// public functions, outside any daemon.
func replayLayers(w workloadDef, in *inputs) ([]metric, error) {
	var ms []metric
	specs := distinctSpecs(append(append([]request(nil), in.Warmup...), in.measured()...))

	// workload: Spec.Build per scenario.
	for _, sc := range scenarioNames {
		var per []float64
		for _, s := range specs {
			if s.Scenario == sc && len(per) < maxSpecsPerScenario {
				per = append(per, timeIt(func() { _, _ = s.Build() }, 20*time.Millisecond))
			}
		}
		name := "workload.spec_build_us." + sc
		if len(per) == 0 {
			ms = append(ms, na(name, "us", "no "+sc+" spec in this workload"))
			continue
		}
		ms = append(ms, metric{Name: name, Unit: "us", Value: median(per) / 1e3, N: len(per), Note: "median over the first distinct specs"})
	}

	// compile: the stage functions over the run's distinct compile keys.
	stages, err := replayCompile(w, specs)
	if err != nil {
		return nil, err
	}
	ms = append(ms, stages...)

	// core: cold vs. warm jobs through serve.BenchColdVsWarm.
	cw, err := replayColdWarm(w, specs)
	if err != nil {
		return nil, err
	}
	ms = append(ms, cw...)

	// fleet: serve.SpecWidth over a shared cache.
	if w.Boards[0].Node >= 0 {
		cache := compile.NewStripCache(compile.DefaultCacheCapacity)
		bc := w.Boards[0].Cfg
		var per []float64
		for _, s := range specs {
			if _, err := serve.SpecWidth(cache, bc, s); err != nil {
				return nil, err
			}
			per = append(per, timeIt(func() { _, _ = serve.SpecWidth(cache, bc, s) }, 20*time.Millisecond))
		}
		ms = append(ms, metric{Name: "fleet.spec_width_us", Unit: "us", Value: median(per) / 1e3, N: len(per), Note: "warm cache"})
	} else {
		ms = append(ms, na("fleet.spec_width_us", "us", "single-node daemon"))
	}

	// serve: handler time under a timing middleware, in process.
	hs, err := replayHandlers(w, in)
	if err != nil {
		return nil, err
	}
	return append(ms, hs...), nil
}

// distinctSpecs returns each distinct spec once, in first-seen order.
func distinctSpecs(reqs []request) []*workload.Spec {
	seen := map[string]bool{}
	var out []*workload.Spec
	for i := range reqs {
		if !seen[reqs[i].Key] {
			seen[reqs[i].Key] = true
			s := reqs[i].Spec
			out = append(out, &s)
		}
	}
	return out
}

// timeIt returns the median nanoseconds of fn over repetitions that
// fill about budget (at least 5).
func timeIt(fn func(), budget time.Duration) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < 5 || (time.Since(start) < budget && len(xs) < 1000) {
		t := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t).Nanoseconds()))
	}
	return median(xs)
}

// compileKey is one strip compile as the board's compileSet issues it.
type compileKey struct {
	nl  *netlist.Netlist
	pos int
}

// replayCompile runs the compile flow stage by stage, as
// compile.CompileStrip does it, over the first maxCompileKeys distinct
// compile keys of the run, and times compile.CompileStrip itself.
func replayCompile(w workloadDef, specs []*workload.Spec) ([]metric, error) {
	bc := w.Boards[0].Cfg
	opt := core.DefaultOptions()
	rows, tracks := bc.Rows, opt.Geometry.TracksPerChannel
	seen := map[string]bool{}
	var keys []compileKey
	for _, s := range specs {
		set, err := s.Build()
		if err != nil {
			return nil, err
		}
		for i, nl := range set.Circuits {
			id := fmt.Sprintf("%s@%d", nl.Name, i)
			if !seen[id] && len(keys) < maxCompileKeys {
				seen[id] = true
				keys = append(keys, compileKey{nl, i})
			}
		}
	}
	var tm, pl, ro, bs, strip []float64
	tmg := opt.Timing
	for _, k := range keys {
		seed := bc.Seed + uint64(k.pos)
		// Best of compileReps, stage by stage and whole, alternating, so
		// a burst of neighbour load does not land in one side only.
		best := [5]time.Duration{}
		for rep := 0; rep < compileReps; rep++ {
			t, err := stageTimes(k.nl, rows, tracks, seed, opt)
			if err != nil {
				return nil, err
			}
			s0 := time.Now()
			if _, err := compile.CompileStrip(k.nl, rows, tracks, compile.Options{Seed: seed, Timing: &tmg}); err != nil {
				return nil, err
			}
			t[4] = time.Since(s0)
			for i := range best {
				if rep == 0 || t[i] < best[i] {
					best[i] = t[i]
				}
			}
		}
		tm, pl, ro, bs = append(tm, msOf(best[0])), append(pl, msOf(best[1])), append(ro, msOf(best[2])), append(bs, msOf(best[3]))
		strip = append(strip, msOf(best[4]))
	}
	n := len(keys)
	note := fmt.Sprintf("mean per compile key of the best of %d, %d keys", compileReps, n)
	stageSum := mean(tm) + mean(pl) + mean(ro) + mean(bs)
	return []metric{
		{Name: "techmap.ms", Unit: "ms", Value: mean(tm), N: n, Note: note + ", netlist.Optimize included"},
		{Name: "place.ms", Unit: "ms", Value: mean(pl), N: n, Note: note},
		{Name: "route.ms", Unit: "ms", Value: mean(ro), N: n, Note: note},
		{Name: "bitstream.ms", Unit: "ms", Value: mean(bs), N: n, Note: note},
		{Name: "compile.strip_ms", Unit: "ms", Value: mean(strip), N: n, Note: note + ", compile.CompileStrip uncached"},
		{Name: "compile.self_ms", Unit: "ms", Value: mean(strip) - stageSum, N: n, Note: "strip_ms minus the four stages"},
	}, nil
}

// stageTimes runs the flow compile.CompileStrip runs, one public stage
// function at a time: netlist.Optimize and techmap.Map (again for every
// width tried, as compile.Compile does), then place.Place, route.Route
// and, at the first width that routes, bitstream.Generate. It returns
// the time spent in each of the four stages.
func stageTimes(nl *netlist.Netlist, rows, tracks int, seed uint64, opt core.Options) (t [5]time.Duration, err error) {
	lap := func(i int, start time.Time) { t[i] += time.Since(start) }
	s0 := time.Now()
	m, err := techmap.Map(netlist.Optimize(nl))
	lap(0, s0)
	if err != nil {
		return t, err
	}
	cells := m.NumCells()
	minW := max((cells+cells/8+rows-1)/rows, 1)
	for width := minW; width <= minW+8; width++ {
		s0 = time.Now()
		m, err := techmap.Map(netlist.Optimize(nl))
		lap(0, s0)
		if err != nil {
			return t, err
		}
		s0 = time.Now()
		p, err := place.Place(m, width, rows, place.Options{Seed: seed})
		lap(1, s0)
		if err != nil {
			return t, err
		}
		s0 = time.Now()
		r, err := route.Route(p, tracks, route.Options{})
		lap(2, s0)
		if err != nil {
			continue
		}
		s0 = time.Now()
		bitstream.Generate(r, opt.Timing)
		lap(3, s0)
		return t, nil
	}
	return t, fmt.Errorf("%s: no width routes", nl.Name)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayColdWarm serves one spec per scenario cold and warm on each
// manager the workload runs.
func replayColdWarm(w workloadDef, specs []*workload.Spec) ([]metric, error) {
	bySc := map[string]*workload.Spec{}
	for _, s := range specs {
		if bySc[s.Scenario] == nil {
			bySc[s.Scenario] = s
		}
	}
	cfgs := map[string]serve.BoardConfig{}
	for _, b := range w.Boards {
		cfgs[b.Cfg.Manager] = b.Cfg
	}
	var ms []metric
	cold := map[string][]float64{}
	for _, mgr := range managerNames {
		bc, ok := cfgs[mgr]
		for _, sc := range scenarioNames {
			name := fmt.Sprintf("core.warm_job_us.%s.%s", mgr, sc)
			spec := bySc[sc]
			switch {
			case !ok:
				ms = append(ms, na(name, "us", "no "+mgr+" board in this workload"))
				continue
			case spec == nil:
				ms = append(ms, na(name, "us", "no "+sc+" spec in this workload"))
				continue
			}
			res, err := serve.BenchColdVsWarm(bc, spec, sc, coldWarmJobs)
			if err != nil {
				return nil, err
			}
			ms = append(ms, metric{Name: name, Unit: "us", Value: float64(res.WarmP50NS) / 1e3, N: res.Jobs, Note: "serve.BenchColdVsWarm warm p50"})
			cold[sc] = append(cold[sc], float64(res.ColdP50NS)/1e6)
		}
	}
	for _, sc := range scenarioNames {
		name := "core.cold_job_ms." + sc
		if len(cold[sc]) == 0 {
			ms = append(ms, na(name, "ms", "no "+sc+" spec in this workload"))
			continue
		}
		ms = append(ms, metric{Name: name, Unit: "ms", Value: median(cold[sc]), N: len(cold[sc]) * coldWarmJobs, Note: "cold p50, compile included"})
	}
	return ms, nil
}

// timedHandler records ServeHTTP durations per route.
type timedHandler struct {
	h     http.Handler
	times map[string][]float64 // µs
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := "other"
	switch {
	case r.Method == "POST" && r.URL.Path == "/v1/jobs":
		route = "submit"
	case r.Method == "GET" && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		route = "status"
	case r.URL.Path == "/metrics":
		route = "metrics"
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.times[route] = append(t.times[route], float64(time.Since(start).Nanoseconds())/1e3)
}

// inProcess builds the workload's server in this process with the
// daemon's configuration.
func inProcess(w workloadDef) (http.Handler, func(), error) {
	limits := serve.TenantLimits{Rate: 0, Burst: 40}
	if w.Boards[0].Node >= 0 {
		nodes := make([][]serve.BoardConfig, 2)
		for _, b := range w.Boards {
			nodes[b.Node] = append(nodes[b.Node], b.Cfg)
		}
		fs, err := fleet.NewServer(fleet.ServerConfig{Nodes: nodes, Policy: "packing", Seed: 1,
			Tenant: limits, Version: "perfbench", FaultNode: -1, CompactWatermark: 0.5})
		if err != nil {
			return nil, nil, err
		}
		fs.Start()
		return fs.Handler(), fs.Drain, nil
	}
	var cfgs []serve.BoardConfig
	for _, b := range w.Boards {
		cfgs = append(cfgs, b.Cfg)
	}
	ss, err := serve.New(serve.Config{Boards: cfgs, Tenant: limits, Version: "perfbench", CompactWatermark: 0.5})
	if err != nil {
		return nil, nil, err
	}
	ss.Start()
	return ss.Handler(), ss.Drain, nil
}

// replayHandlers sends the warm-up and the first measured requests
// straight into the handler, one job at a time, polling by the fixed
// policy and scraping /metrics every 25 jobs.
func replayHandlers(w workloadDef, in *inputs) ([]metric, error) {
	h, drain, err := inProcess(w)
	if err != nil {
		return nil, err
	}
	defer drain()
	th := &timedHandler{h: h, times: map[string][]float64{}}
	n := handlerJobs
	if w.OpenRate == 0 {
		n = handlerJobsCold
	}
	main := in.measured()
	reqs := append(append([]request(nil), in.Warmup...), main[:min(n, len(main))]...)
	sl := newSleeper()
	defer sl.close()
	for i, r := range reqs {
		rec := httptest.NewRecorder()
		th.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(r.Body)))
		if rec.Code != http.StatusAccepted {
			return nil, fmt.Errorf("in-process submit: %d %s", rec.Code, rec.Body.String())
		}
		id := idOf(rec.Body.Bytes())
		acked := time.Now()
		for at, wait := acked.Add(pollInterval), pollInterval; ; at, wait = nextPoll(time.Now(), acked, wait) {
			sl.until(at)
			rec := httptest.NewRecorder()
			th.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
			if bytes.Contains(rec.Body.Bytes(), []byte(`"state": "done"`)) || bytes.Contains(rec.Body.Bytes(), []byte(`"state": "failed"`)) {
				break
			}
		}
		if i%25 == 0 {
			th.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
		}
	}
	var ms []metric
	for _, route := range []string{"submit", "status", "metrics"} {
		xs := th.times[route]
		ms = append(ms, metric{Name: "serve.handler_us." + route, Unit: "us", Value: median(xs), N: len(xs), Note: "p50, in-process handler"})
	}
	return ms, nil
}

func idOf(b []byte) string {
	const k = `"id": "`
	i := bytes.Index(b, []byte(k))
	if i < 0 {
		return ""
	}
	rest := b[i+len(k):]
	return string(rest[:bytes.IndexByte(rest, '"')])
}

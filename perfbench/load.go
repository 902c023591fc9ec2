package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The fixed polling policy: a job is first polled pollInterval after
// its submit returns, and again pollInterval after each non-terminal
// poll returns, until pollBackoffAfter has passed since the submit;
// from then on each wait grows by a quarter, up to pollMaxInterval.
// Short jobs are seen to within half a millisecond; a job that
// compiles for a second costs about 200 polls, not 2000.
const (
	pollInterval     = 500 * time.Microsecond
	pollBackoffAfter = 5 * time.Millisecond
	pollMaxInterval  = 5 * time.Millisecond
)

// nextPoll returns when to poll a job again: now plus the wait the
// policy gives after the previous wait prev, for a job submitted at
// acked.
func nextPoll(now, acked time.Time, prev time.Duration) (time.Time, time.Duration) {
	wait := pollInterval
	if now.Sub(acked) >= pollBackoffAfter {
		wait = min(max(prev+prev/4, pollInterval), pollMaxInterval)
	}
	return now.Add(wait), wait
}

// scrapeInterval spaces the GET /metrics scrapes.
const scrapeInterval = 100 * time.Millisecond

// drainTimeout bounds how long a phase waits for its last job.
const drainTimeout = 30 * time.Second

// phase is one timed stretch of traffic.
type phase struct {
	Jobs       []*jobRec
	IO         ioStats
	LagMS      []float64 // open loop: how late each submit left
	Start, End time.Time // first due time → last terminal poll
	Scrapes    []scrape
	DaemonCPU  time.Duration
	DriverCPU  time.Duration
	StealShare float64       // host steal / host CPU time over the phase
	Steal      []stealSample // host counters every stealWindow, first and last at the phase's bounds
}

// stealWindow spaces the host steal samples; lat_p50_ms pools the jobs
// due in the quietest of the windows between them.
const stealWindow = 250 * time.Millisecond

// stealSample is the host's steal and total jiffies at one instant.
type stealSample struct {
	At           time.Time
	Steal, Total int64
}

func sampleSteal() stealSample {
	s, t := hostCPU()
	return stealSample{At: time.Now(), Steal: s, Total: t}
}

// measureHost samples the host's steal counters every stealWindow
// until the phase ends and records its steal share; call it at the
// start and defer the returned func.
func (p *phase) measureHost() func() {
	p.Steal = []stealSample{sampleSteal()}
	stopc, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(stealWindow)
		defer t.Stop()
		for {
			select {
			case <-stopc:
				return
			case <-t.C:
				p.Steal = append(p.Steal, sampleSteal())
			}
		}
	}()
	return func() {
		close(stopc)
		<-done
		p.Steal = append(p.Steal, sampleSteal())
		first, last := p.Steal[0], p.Steal[len(p.Steal)-1]
		if last.Total > first.Total {
			p.StealShare = float64(last.Steal-first.Steal) / float64(last.Total-first.Total)
		}
	}
}

func (p *phase) wall() time.Duration { return p.End.Sub(p.Start) }

// completed counts jobs that reached state done.
func (p *phase) completed() int {
	n := 0
	for _, j := range p.Jobs {
		if j.Cause == "" && j.Status.State == "done" {
			n++
		}
	}
	return n
}

// scrape is one GET /metrics (plus /v1/boards when tracing).
type scrape struct {
	At        time.Time
	RTTms     float64
	Bytes     int
	Series    map[string]float64
	Boards    []boardInfo
	RSSKB     float64
	CPU       time.Duration // daemon utime+stime
	Completed int64
}

// scraper scrapes /metrics at scrapeInterval until stopped.
type scraper struct {
	c         *client
	pid       int
	boards    bool // also sample /v1/boards
	completed *atomic.Int64
	stopc     chan struct{}
	wg        sync.WaitGroup
	mu        sync.Mutex
	out       []scrape
}

func startScraper(c *client, pid int, boards bool, completed *atomic.Int64) *scraper {
	s := &scraper{c: c, pid: pid, boards: boards, completed: completed, stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(scrapeInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.once()
			}
		}
	}()
	return s
}

func (s *scraper) once() {
	r := s.c.do("GET", "/metrics", nil)
	s.c.tr.add("", "scrape", r.Start, r.End, len(r.Body), r.Code)
	if r.Err != nil || r.Code != 200 {
		return
	}
	sc := scrape{At: r.End, RTTms: float64(r.rtt().Nanoseconds()) / 1e6, Bytes: len(r.Body),
		Series: parseMetrics(r.Body), Completed: s.completed.Load()}
	sc.RSSKB, _ = procStatusKB(s.pid, "VmRSS")
	sc.CPU, _ = procCPU(s.pid)
	if s.boards {
		b := s.c.do("GET", "/v1/boards", nil)
		s.c.tr.add("", "boards", b.Start, b.End, len(b.Body), b.Code)
		if b.Err == nil && b.Code == 200 {
			_ = json.Unmarshal(b.Body, &sc.Boards)
		}
	}
	s.mu.Lock()
	s.out = append(s.out, sc)
	s.mu.Unlock()
}

// stop ends the scraper and returns its samples.
func (s *scraper) stop() []scrape {
	close(s.stopc)
	s.wg.Wait()
	return s.out
}

// parseMetrics reads Prometheus text exposition into series → value,
// keyed by the series exactly as written (name plus label block).
func parseMetrics(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumSeries adds every series of family name whose label block holds
// all the given `k="v"` pairs.
func sumSeries(m map[string]float64, name string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// runOpen sends reqs open loop: one connection submits each request at
// its due time, the other polls outstanding jobs by the fixed policy.
func runOpen(d *daemon, sub, pol *client, reqs []request, completed *atomic.Int64) *phase {
	p := &phase{Jobs: make([]*jobRec, len(reqs))}
	defer p.measureHost()()
	cpu0, _ := procCPU(d.pid())
	self0 := selfCPU()
	epoch := time.Now().Add(5 * time.Millisecond)
	p.Start = epoch
	accepted := make(chan *jobRec, len(reqs)) // one slot per send: the submitter never blocks on the poller
	var subIO ioStats
	go func() {
		defer close(accepted)
		sl := newSleeper()
		defer sl.close()
		for i := range reqs {
			j := &jobRec{Req: &reqs[i], Due: epoch.Add(reqs[i].Due)}
			p.Jobs[i] = j
			sl.until(j.Due)
			p.LagMS = append(p.LagMS, float64(time.Since(j.Due).Nanoseconds())/1e6)
			sub.submit(j, &subIO)
			if j.Cause == "" {
				accepted <- j
			} else {
				j.Done = j.Acked
			}
		}
	}()
	pollLoop(pol, accepted, &p.IO, completed)
	p.IO.merge(&subIO)
	p.End = p.Start
	for _, j := range p.Jobs {
		if j.Done.After(p.End) {
			p.End = j.Done
		}
	}
	cpu1, _ := procCPU(d.pid())
	p.DaemonCPU = cpu1 - cpu0
	p.DriverCPU = selfCPU() - self0
	return p
}

// pollLoop polls every accepted job by the fixed policy until the
// channel closes and no job is outstanding.
func pollLoop(pol *client, accepted <-chan *jobRec, st *ioStats, completed *atomic.Int64) {
	type pending struct {
		j    *jobRec
		next time.Time
		wait time.Duration
	}
	var out []pending
	open := true
	sl := newSleeper()
	defer sl.close()
	add := func(j *jobRec) { out = append(out, pending{j, j.Acked.Add(pollInterval), pollInterval}) }
	var deadline time.Time
	for open || len(out) > 0 {
		if len(out) == 0 {
			j, ok := <-accepted
			if !ok {
				break
			}
			add(j)
		}
	intake:
		for open {
			select {
			case j, ok := <-accepted:
				if !ok {
					open = false
					deadline = time.Now().Add(drainTimeout)
					break intake
				}
				add(j)
			default:
				break intake
			}
		}
		earliest := out[0].next
		for _, o := range out[1:] {
			if o.next.Before(earliest) {
				earliest = o.next
			}
		}
		sl.until(earliest)
		now := time.Now()
		kept := out[:0]
		for _, o := range out {
			if o.next.After(now) {
				kept = append(kept, o)
				continue
			}
			if pol.poll(o.j, st) {
				completed.Add(1)
				continue
			}
			o.next, o.wait = nextPoll(time.Now(), o.j.Acked, o.wait)
			kept = append(kept, o)
		}
		out = kept
		if !open && time.Now().After(deadline) {
			for _, o := range out {
				o.j.Cause, o.j.Done = causeTimeout, time.Now()
			}
			return
		}
	}
}

// runClosed runs reqs closed loop: each client keeps one job
// outstanding, submitting the next only once the previous is terminal.
// Jobs not started within budget are not sent (cause not_sent), so a
// daemon many times slower still ends the run in bounded time.
func runClosed(d *daemon, clients []*client, reqs []request, budget time.Duration, completed *atomic.Int64) *phase {
	p := &phase{Jobs: make([]*jobRec, len(reqs))}
	defer p.measureHost()()
	cpu0, _ := procCPU(d.pid())
	self0 := selfCPU()
	p.Start = time.Now()
	var next atomic.Int64
	stats := make([]ioStats, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(c *client, st *ioStats) {
			defer wg.Done()
			sl := newSleeper()
			defer sl.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				j := &jobRec{Req: &reqs[i], Due: time.Now()}
				p.Jobs[i] = j
				if j.Due.Sub(p.Start) > budget {
					j.Cause, j.Done = causeNotSent, j.Due
					continue
				}
				c.submit(j, st)
				if j.Cause != "" {
					j.Done = j.Acked
					continue
				}
				c.await(j, sl, st)
				completed.Add(1)
			}
		}(c, &stats[ci])
	}
	wg.Wait()
	p.End = time.Now()
	for i := range stats {
		p.IO.merge(&stats[i])
	}
	cpu1, _ := procCPU(d.pid())
	p.DaemonCPU = cpu1 - cpu0
	p.DriverCPU = selfCPU() - self0
	return p
}

// runSerial submits reqs one at a time and waits for each (warm-up).
// Set-up must not fail: the first job that does not finish ends it
// with an error.
func runSerial(c *client, reqs []request) ([]*jobRec, error) {
	var st ioStats
	var out []*jobRec
	sl := newSleeper()
	defer sl.close()
	for i := range reqs {
		j := &jobRec{Req: &reqs[i], Due: time.Now()}
		out = append(out, j)
		c.submit(j, &st)
		if j.Cause == "" {
			c.await(j, sl, &st)
		}
		if j.Cause != "" || j.Status.State != "done" {
			return out, fmt.Errorf("warm-up job %d (%s): %s %s %s", i, j.Req.Spec.Scenario, j.Cause, j.Detail, j.Status.Error)
		}
	}
	return out, nil
}

// await polls j by the fixed policy until it is terminal, or until
// drainTimeout has passed since its submit returned.
func (c *client) await(j *jobRec, sl *sleeper, st *ioStats) {
	deadline := j.Acked.Add(drainTimeout)
	at, wait := j.Acked.Add(pollInterval), pollInterval
	for {
		sl.until(at)
		if c.poll(j, st) {
			return
		}
		if time.Now().After(deadline) {
			j.Cause, j.Done = causeTimeout, time.Now()
			return
		}
		at, wait = nextPoll(time.Now(), j.Acked, wait)
	}
}

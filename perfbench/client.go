package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
)

// span is one client-side request (or a job's whole life) in the
// traced run. Spans of one job share its id.
type span struct {
	Round int    `json:"round"` // new-designs runs one daemon per round; job ids restart
	Job   string `json:"job,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the run's epoch
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes,omitempty"`
	Code  int    `json:"code,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	round int
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(job, name string, start, end time.Time, n, code int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Round: t.round, Job: job, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bytes: n, Code: code})
	t.mu.Unlock()
}

// client is one HTTP connection to the daemon: its transport allows a
// single connection, so every role of the driver owns exactly one.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange as the driver saw it.
type reply struct {
	Code       int
	Body       []byte
	Start, End time.Time
	Err        error // transport error
}

func (r reply) rtt() time.Duration { return r.End.Sub(r.Start) }

func (c *client) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{Err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{Start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.End, r.Err = time.Now(), err
		return r
	}
	r.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.End, r.Code, r.Err = time.Now(), resp.StatusCode, err
	return r
}

// jobStatus is the part of GET /v1/jobs/{id} the driver checks.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Board  int    `json:"board"`
	Node   int    `json:"node"`
	Error  string `json:"error"`
	Result *struct {
		Makespan int64                  `json:"makespan_ns"`
		Metrics  []core.MetricsSnapshot `json:"metrics"`
	} `json:"result"`
}

func terminal(state string) bool { return state == "done" || state == "failed" }

// Failure causes, counted against attempts.
const (
	causeAdmission = "admission_429"
	causeQueueFull = "queue_full_429"
	cause5xx       = "http_5xx"
	causeOtherHTTP = "http_other"
	causeTransport = "transport"
	causeTimeout   = "no_terminal_state"
	causeNotSent   = "not_sent"
	causeJobFailed = "job_failed"
	causeWrong     = "wrong_result"
)

// jobRec is one submitted job as the driver observed it.
type jobRec struct {
	Req       *request
	ID        string
	Due       time.Time // open loop: the schedule; closed loop: send time
	Acked     time.Time
	Done      time.Time // first poll that saw a terminal state
	Polls     int
	Cause     string // "" while the job is fine
	Detail    string
	Status    jobStatus
	LedgerOps int64
}

func (j *jobRec) latency() time.Duration { return j.Done.Sub(j.Due) }

// ioStats aggregates client-side request costs.
type ioStats struct {
	SubmitRTT   []float64 // µs
	StatusRTT   []float64 // µs
	StatusBytes int64
	Polls       int64
	Hits        int64 // polls that saw a terminal state
}

func (s *ioStats) merge(o *ioStats) {
	s.SubmitRTT = append(s.SubmitRTT, o.SubmitRTT...)
	s.StatusRTT = append(s.StatusRTT, o.StatusRTT...)
	s.StatusBytes += o.StatusBytes
	s.Polls += o.Polls
	s.Hits += o.Hits
}

// submit POSTs the job and fills in its id or failure cause.
func (c *client) submit(j *jobRec, st *ioStats) {
	r := c.do("POST", "/v1/jobs", j.Req.Body)
	j.Acked = r.End
	st.SubmitRTT = append(st.SubmitRTT, float64(r.rtt().Nanoseconds())/1e3)
	switch {
	case r.Err != nil:
		j.Cause, j.Detail = causeTransport, r.Err.Error()
	case r.Code == http.StatusAccepted:
		var sr struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(r.Body, &sr); err != nil || sr.ID == "" {
			j.Cause, j.Detail = causeOtherHTTP, "undecodable 202 body"
		}
		j.ID = sr.ID
	case r.Code == http.StatusTooManyRequests && bytes.Contains(r.Body, []byte("queues full")):
		j.Cause = causeQueueFull
	case r.Code == http.StatusTooManyRequests:
		j.Cause = causeAdmission
	case r.Code >= 500:
		j.Cause, j.Detail = cause5xx, string(bytes.TrimSpace(r.Body))
	default:
		j.Cause, j.Detail = causeOtherHTTP, fmt.Sprintf("%d %s", r.Code, bytes.TrimSpace(r.Body))
	}
	c.tr.add(j.ID, "submit", r.Start, r.End, len(r.Body), r.Code)
}

// poll GETs the job once and reports whether it is terminal (or the
// poll failed for good).
func (c *client) poll(j *jobRec, st *ioStats) bool {
	r := c.do("GET", "/v1/jobs/"+j.ID, nil)
	j.Polls++
	st.Polls++
	st.StatusRTT = append(st.StatusRTT, float64(r.rtt().Nanoseconds())/1e3)
	st.StatusBytes += int64(len(r.Body))
	c.tr.add(j.ID, "poll", r.Start, r.End, len(r.Body), r.Code)
	switch {
	case r.Err != nil:
		j.Cause, j.Detail, j.Done = causeTransport, r.Err.Error(), r.End
		return true
	case r.Code >= 500:
		j.Cause, j.Detail, j.Done = cause5xx, string(bytes.TrimSpace(r.Body)), r.End
		return true
	case r.Code != http.StatusOK:
		j.Cause, j.Detail, j.Done = causeOtherHTTP, fmt.Sprintf("%d on poll", r.Code), r.End
		return true
	}
	var s jobStatus
	if err := json.Unmarshal(r.Body, &s); err != nil {
		j.Cause, j.Detail, j.Done = causeOtherHTTP, "undecodable status", r.End
		return true
	}
	if !terminal(s.State) {
		return false
	}
	st.Hits++
	j.Done, j.Status = r.End, s
	if s.Result != nil {
		for _, m := range s.Result.Metrics {
			j.LedgerOps += ledgerOps(m)
		}
	}
	c.tr.add(j.ID, "job", j.Due, j.Done, 0, 0)
	return true
}

// ledgerOps sums the residency-ledger operations of one engine.
func ledgerOps(m core.MetricsSnapshot) int64 {
	return m.Loads + m.Evictions + m.Readbacks + m.Restores + m.Rollbacks + m.PageFaults +
		m.PageLoads + m.GCRuns + m.Relocations + m.Blocks + m.MuxedOps
}

// sleeper waits for wall-clock instants on a Linux timerfd. The
// runtime's own timers round short sleeps up to about a millisecond,
// and a nanosleep holds its P for the whole sleep, which starves the
// HTTP transport's goroutines at GOMAXPROCS=2; a read on a non-blocking
// timerfd parks only the goroutine and wakes within tens of
// microseconds. A sleeper belongs to one goroutine.
type sleeper struct {
	f  *os.File
	fd uintptr
}

// Linux ABI constants for timerfd_create.
const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// checkTimerfd reports whether this kernel provides timerfd; run
// refuses to measure without it.
func checkTimerfd() error {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return fmt.Errorf("timerfd_create: %w", errno)
	}
	return syscall.Close(int(fd))
}

// newSleeper opens a timerfd. If that fails (checkTimerfd passed at
// start, so only on fd exhaustion) the sleeper falls back to
// time.Sleep.
func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// until blocks the goroutine until t.
func (s *sleeper) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if s.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec: it_interval (zero: one shot), it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d) // cannot happen with a valid fd; degrade, do not spin
		return
	}
	var b [8]byte
	if _, err := s.f.Read(b[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}

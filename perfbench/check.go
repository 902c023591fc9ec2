package main

import (
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// reference is what a direct cold run of a spec on a board config
// produces: a makespan, or a failure.
type reference struct {
	Makespan  int64
	Failed    bool
	FaultKind string
	Err       string // a non-fault failure (for example a circuit wider than the device)
}

// checker computes references with serve.NewDirectRunner, one runner
// (and so one compile cache) per board config, memoized per (config,
// spec). One checker serves every pass of a run.
type checker struct {
	w       workloadDef
	runners map[string]loadgen.RunFunc
	memo    map[string]reference
}

func newChecker(w workloadDef) *checker {
	return &checker{w: w, runners: map[string]loadgen.RunFunc{}, memo: map[string]reference{}}
}

// boardFor returns the config of the board that served the job.
func (c *checker) boardFor(st jobStatus) (serve.BoardConfig, error) {
	if i := c.w.boardIndex(st.Node, st.Board); i >= 0 {
		return c.w.Boards[i].Cfg, nil
	}
	return serve.BoardConfig{}, fmt.Errorf("job %s ran on unknown board %d (node %d)", st.ID, st.Board, st.Node)
}

func (c *checker) reference(bc serve.BoardConfig, r *request) (reference, error) {
	cfg := fmt.Sprintf("%+v", bc)
	id := cfg + "\x00" + r.Key
	if ref, ok := c.memo[id]; ok {
		return ref, nil
	}
	run, ok := c.runners[cfg]
	if !ok {
		var err error
		if run, err = serve.NewDirectRunner(bc); err != nil {
			return reference{}, err
		}
		c.runners[cfg] = run
	}
	spec := r.Spec
	o, err := run(r.Tenant, &spec)
	ref := reference{Makespan: int64(o.Service), Failed: o.Failed, FaultKind: o.FaultKind}
	if err != nil {
		ref = reference{Failed: true, Err: err.Error()}
	}
	c.memo[id] = ref
	return ref, nil
}

// check compares every terminal job with its reference. A job that
// differs gets cause wrong_result; a job that failed exactly as its
// reference did keeps cause job_failed.
func (c *checker) check(jobs []*jobRec) error {
	for _, j := range jobs {
		if j == nil || j.Cause != "" {
			continue
		}
		bc, err := c.boardFor(j.Status)
		if err != nil {
			j.Cause, j.Detail = causeWrong, err.Error()
			continue
		}
		ref, err := c.reference(bc, j.Req)
		if err != nil {
			return err
		}
		st := j.Status
		switch {
		case !ref.Failed && st.State == "done" && st.Result != nil && st.Result.Makespan == ref.Makespan:
		case ref.Failed && st.State == "failed" && (ref.Err == "" || st.Error == ref.Err):
			j.Cause, j.Detail = causeJobFailed, st.Error
		default:
			got := fmt.Sprintf("state %s error %q", st.State, st.Error)
			if st.Result != nil {
				got = fmt.Sprintf("makespan %d", st.Result.Makespan)
			}
			want := fmt.Sprintf("makespan %d", ref.Makespan)
			if ref.Failed {
				want = fmt.Sprintf("failure %q %s", ref.Err, ref.FaultKind)
			}
			j.Cause, j.Detail = causeWrong, fmt.Sprintf("job %s (%s on %s board %d): got %s, want %s",
				st.ID, j.Req.Spec.Scenario, bc.Manager, st.Board, got, want)
		}
	}
	return nil
}

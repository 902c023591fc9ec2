package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: tail must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		wantQ  float64
		beyond int
	}{
		{10000, 0.999, 10},
		{9999, 0.99, 99},
		{1000, 0.99, 10},
		{999, 0.95, 49},
		{300, 0.95, 15},
		{100, 0.9, 10},
		{99, 0.5, 49},
		{5, 0.5, 2},
	}
	for _, c := range cases {
		got := tail(seq(c.n), 1)
		if got.Q != c.wantQ || got.N != c.n || got.Beyond != c.beyond {
			t.Errorf("n=%d: got q=%v n=%d beyond=%d, want q=%v n=%d beyond=%d",
				c.n, got.Q, got.N, got.Beyond, c.wantQ, c.n, c.beyond)
		}
		if c.n >= 11 && got.Beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond %s", c.n, got.Beyond, got.label())
		}
		// Nearest rank: the value is the rank-th smallest, 1..n here.
		if want := math.Ceil(got.Q * float64(c.n)); got.Value != want {
			t.Errorf("n=%d: %s = %v, want %v", c.n, got.label(), got.Value, want)
		}
	}
	if got := tail(seq(10000), 0.99); got.Q != 0.99 {
		t.Errorf("maxQ 0.99 not honoured: got %s", got.label())
	}
	if got := tail(seq(1000), 1).label(); got != "p99" {
		t.Errorf("label = %q, want p99", got)
	}
}

func TestLittleWait(t *testing.T) {
	// 3 jobs waiting on average at 300 jobs/s: each waits 10ms.
	if got := littleWaitMS([]float64{2, 4, 3, 3}, 300); math.Abs(got-10) > 1e-9 {
		t.Errorf("littleWaitMS = %v, want 10", got)
	}
	if got := littleWaitMS(nil, 300); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	if got := littleWaitMS([]float64{1}, 0); got != 0 {
		t.Errorf("no throughput: got %v, want 0", got)
	}
}

func TestSlope(t *testing.T) {
	x := []float64{0, 100, 200, 300}
	y := []float64{1000, 1400, 1800, 2200}
	if got := slope(x, y); math.Abs(got-4) > 1e-9 {
		t.Errorf("slope = %v, want 4", got)
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads() {
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.Name)
		}
		main := a.measured()
		if len(main) == 0 {
			t.Errorf("%s: no measured requests", w.Name)
		}
		for i := 1; i < len(main) && w.OpenRate > 0; i++ {
			if main[i].Due < main[i-1].Due {
				t.Fatalf("%s: due times not monotone at %d", w.Name, i)
			}
		}
		if w.OpenRate > 0 {
			last := main[len(main)-1].Due
			if d := last - 2*time.Second; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("%s: last arrival at %v, want 2s", w.Name, last)
			}
		}
	}
}

func TestNewDesignsBalancedDraw(t *testing.T) {
	names := registryNames()
	for _, seed := range []uint64{1, 2, 3} {
		reqs, err := newDesigns(rng.New(seed), designBlocks, designK)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != designBlocks*len(names) {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(reqs), designBlocks*len(names))
		}
		keys := map[string]int{}
		withDiv16 := 0
		for _, r := range reqs {
			pool := r.Spec.Synthetic.Pool
			if len(pool) != designK {
				t.Fatalf("pool of %d circuits, want %d", len(pool), designK)
			}
			dup := map[string]bool{}
			for p, c := range pool {
				if dup[c] {
					t.Fatalf("pool %v repeats %s", pool, c)
				}
				dup[c] = true
				keys[fmt.Sprintf("%s@%d", c, p)]++
				if c == "div16" {
					withDiv16++
				}
			}
		}
		// Every (circuit, position) compile key, each once per block.
		if len(keys) != len(names)*designK {
			t.Errorf("seed %d: %d distinct compile keys, want %d", seed, len(keys), len(names)*designK)
		}
		for k, n := range keys {
			if n != designBlocks {
				t.Fatalf("seed %d: key %s used %d times, want %d", seed, k, n, designBlocks)
			}
		}
		if withDiv16 != designBlocks*designK {
			t.Errorf("seed %d: %d jobs hold div16, want %d", seed, withDiv16, designBlocks*designK)
		}
	}
}

func TestPollPolicy(t *testing.T) {
	acked := time.Unix(0, 0)
	at, wait := acked.Add(pollInterval), pollInterval
	polls := 1
	for at.Sub(acked) < time.Second {
		at, wait = nextPoll(at, acked, wait)
		polls++
		if wait > pollMaxInterval {
			t.Fatalf("wait %v above the cap", wait)
		}
	}
	if polls < 150 || polls > 260 {
		t.Errorf("a one-second job takes %d polls, want about 200", polls)
	}
	// A fast job is polled every half millisecond.
	if next, w := nextPoll(acked.Add(2*time.Millisecond), acked, pollInterval); w != pollInterval || next.Sub(acked) != 2500*time.Microsecond {
		t.Errorf("early poll: next %v wait %v", next.Sub(acked), w)
	}
}

func TestQuietJobs(t *testing.T) {
	t0 := time.Unix(0, 0)
	// Four 1-second windows stealing 0%, 10%, 0% and 40% of 100 jiffies.
	samples := []stealSample{{t0, 0, 0}}
	for i, s := range []int64{0, 10, 0, 40} {
		last := samples[i]
		samples = append(samples, stealSample{t0.Add(time.Duration(i+1) * time.Second), last.Steal + s, last.Total + 100})
	}
	// Ten jobs per window, plus one due after the last sample.
	var jobs []*jobRec
	for w := 0; w < 4; w++ {
		for k := 0; k < 10; k++ {
			jobs = append(jobs, &jobRec{Due: t0.Add(time.Duration(w)*time.Second + time.Duration(k)*50*time.Millisecond)})
		}
	}
	jobs = append(jobs, &jobRec{Due: t0.Add(5 * time.Second)})
	// Windows 0 and 2 hold 20 of 41 jobs, at least a quarter.
	got, steal := quietJobs(jobs, samples)
	if len(got) != 20 || steal != 0 {
		t.Fatalf("got %d jobs at steal %v, want 20 at 0", len(got), steal)
	}
	for _, j := range got {
		if w := int(j.Due.Sub(t0) / time.Second); w != 0 && w != 2 {
			t.Errorf("job due in window %d selected", w)
		}
	}
	// Fewer quiet jobs than a quarter: the next steal level joins.
	got, steal = quietJobs(jobs[8:20], samples[:3])
	if len(got) != 12 || steal != 0.1 {
		t.Errorf("got %d jobs at steal %v, want 12 at 0.1", len(got), steal)
	}
	// No samples: every job.
	if got, _ := quietJobs(jobs, nil); len(got) != len(jobs) {
		t.Errorf("no samples: got %d jobs, want %d", len(got), len(jobs))
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x y\n# TYPE x counter\nx{board=\"0\",mode=\"warm\"} 5\nx{board=\"1\",mode=\"warm\"} 7\nx{board=\"1\",mode=\"cold\"} 1\ny 2.5\n"))
	if got := sumSeries(m, "x", `mode="warm"`); got != 12 {
		t.Errorf("warm sum = %v, want 12", got)
	}
	if got := sumSeries(m, "x"); got != 13 {
		t.Errorf("sum = %v, want 13", got)
	}
	if got := sumSeries(m, "y"); got != 2.5 {
		t.Errorf("y = %v, want 2.5", got)
	}
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for one second, untraced and traced,
// against a vfpgad built from this tree, and checks that every metric
// BENCHMARK.json declares is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds vfpgad and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vfpgad")
	self := filepath.Join(dir, "perfbench")
	for _, b := range [][]string{{"-o", bin, "repro/cmd/vfpgad"}, {"-o", self, "."}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", "1", "--seconds", "1",
				"--trace", traced, "--daemon", bin, "--out", dir)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w.Name, traced, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s missing or unit %q != %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(string(out), m.Name+" ") {
					t.Errorf("%s trace %s: %s not printed", w.Name, traced, m.Name)
				}
			}
		}
	}
}

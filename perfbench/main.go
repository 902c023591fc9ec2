// Command perfbench is the wall-clock benchmark of vfpgad. It starts a
// freshly built vfpgad as a child process, drives it over loopback HTTP
// with inputs generated from --seed, checks every job result against a
// direct cold run of the same spec, and prints every metric with its
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// the command makes an untraced and a traced run, replays the run's
// distinct inputs through the layers' public functions, and prints the
// per-layer metrics plus the tracing overhead of every end-to-end
// metric.
//
// Usage (from the repository root, after perfbench/run.sh has built
// the binaries; run.sh does both):
//
//	perfbench --workload warm-mix --seed 1 --seconds 10 --trace 0 --daemon .bench_build/vfpgad
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// maxProcs is the driver's thread and connection budget: the machine's
// CPU count, at most 2.
var maxProcs = min(2, runtime.NumCPU())

func main() {
	wname := flag.String("workload", "warm-mix", "workload: warm-mix | new-designs | fleet-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 adds a traced run and the per-layer replay")
	daemonBin := flag.String("daemon", filepath.Join(".bench_build", "vfpgad"), "vfpgad binary")
	outDir := flag.String("out", ".bench_build", "directory for run files and spans")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*wname, *seed, *seconds, *traceFlag == 1, *daemonBin, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
}

func run(wname string, seed uint64, seconds int, traced bool, bin, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("vfpgad binary: %w", err)
	}
	if err := checkTimerfd(); err != nil {
		return err
	}
	in, err := generate(w, seed, seconds)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", w.Name, seed, seconds, traced)
	fmt.Printf("daemon: %s %s\n", bin, strings.Join(w.Flags, " "))
	fmt.Printf("driver: GOMAXPROCS=%d, %d connections, poll every %v (growing by 1/4 up to %v after %v), scrape every %v\n",
		maxProcs, maxProcs, pollInterval, pollMaxInterval, pollBackoffAfter, scrapeInterval)
	fmt.Printf("inputs: %d warm-up, %d measured in %d round(s), %d ladder steps, sha256 %s\n",
		len(in.Warmup), len(in.measured()), len(in.Rounds), len(in.Ladder), in.digest())

	ck := newChecker(w)
	base, err := measureAll(w, in, bin, outDir, false, ck)
	if err != nil {
		return err
	}
	e2e, info := base.endToEnd()
	fmt.Println("-- end to end" + map[bool]string{true: " (untraced)"}[traced])
	printMetrics(e2e)
	printMetrics(info)
	base.report()
	if !traced {
		return finish(e2e, base)
	}

	traceRun, err := measureAll(w, in, bin, outDir, true, ck)
	if err != nil {
		return err
	}
	fmt.Println("-- end to end (traced)")
	traced2, info2 := traceRun.endToEnd()
	printMetrics(traced2)
	printMetrics(info2)
	traceRun.report()
	layers := traceRun.serveLayers()
	replayed, err := replayLayers(w, in)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	layers = append(layers, replayed...)
	// A layer's self time on the wire: the client's round trip minus the
	// handler's own time.
	for _, route := range []string{"submit", "status"} {
		layers = append(layers, metric{Name: "serve.transport_us." + route, Unit: "us",
			Value: lookup(layers, "serve."+route+"_rtt_p50_us") - lookup(layers, "serve.handler_us."+route),
			Note:  "client RTT p50 minus handler p50"})
	}
	untraced := append(append([]metric(nil), e2e...), info...)
	tracedAll := append(append([]metric(nil), traced2...), info2...)
	for _, m := range untraced {
		if m.Name == "failed_share" || m.Name == "slo_jobs_s" {
			continue // a count and a ladder step: no overhead to speak of
		}
		layers = append(layers, metric{Name: "trace_overhead." + m.Name, Unit: m.Unit,
			Value: lookup(tracedAll, m.Name) - m.Value, Note: "traced minus untraced"})
	}
	fmt.Println("-- per layer")
	printMetrics(layers)
	if err := writeSpans(traceRun, filepath.Join(outDir, "trace"), w.Name, seed); err != nil {
		return err
	}
	return finish(layers, base, traceRun)
}

// finish prints the result line and picks the exit code. Attempts and
// failures are the first pass's; a wrong result in any pass counts.
func finish(ms []metric, passes ...runSet) error {
	attempted, failed, _ := passes[0].counts()
	wrong := 0
	for _, p := range passes {
		_, _, w := p.counts()
		wrong += w
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]json.RawMessage{}}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		b, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, m.Unit})
		out.Metrics[m.Name] = b
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d job result(s) differ from the reference\n", wrong)
		os.Exit(1)
	}
	return nil
}

// metric is one printed figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int    // sample count (0 when not a sample statistic)
	Note  string // how it was taken, or why it does not apply
}

func lookup(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%-40s %14.4f %-8s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
}

// writeSpans writes the traced run's spans, one JSON object a line.
func writeSpans(rs runSet, dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	n := 0
	for _, r := range rs {
		for _, s := range r.spans() {
			n++
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", n, path)
	return nil
}

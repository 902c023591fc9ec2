package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// boardRef names one board of the daemon under test and the config it
// runs, so warm-up can pin to it and the output check can rebuild it.
type boardRef struct {
	Node  int // -1 on a single-node daemon
	Board int
	Cfg   serve.BoardConfig
}

// workloadDef is one benchmark workload: the daemon it starts and the
// traffic it sends.
type workloadDef struct {
	Name   string
	Flags  []string // daemon flags, recorded in the report
	Boards []boardRef
	Warmup bool // run every builtin scenario once per board before timing
	// OpenRate is the open-loop arrival rate in jobs/s; 0 means closed
	// loop with one outstanding job per client.
	OpenRate float64
	// Ladder lists the offered rates of the slo_jobs_s probe (open loop
	// only; nil skips the probe).
	Ladder []float64
}

const (
	tenants       = 4   // loadgen.DefaultMix tenants on the open-loop workloads
	designK       = 6   // circuits per new-designs job
	designBlocks  = 6   // balanced blocks per new-designs round
	roundSeconds  = 5   // --seconds per new-designs round (a round takes 5–8 s)
	sloLimitMS    = 25  // p99 wall-clock limit of the slo_jobs_s ladder
	ladderStepSec = 1.0 // seconds per ladder step
)

// boardConfig mirrors vfpgad's flag defaults for one board.
func boardConfig(manager string) serve.BoardConfig {
	bc := serve.DefaultBoardConfig()
	bc.Manager = manager
	return bc
}

func workloads() []workloadDef {
	single := []boardRef{
		{Node: -1, Board: 0, Cfg: boardConfig("dynamic")},
		{Node: -1, Board: 1, Cfg: boardConfig("dynamic")},
	}
	var fleetBoards []boardRef
	for n := 0; n < 2; n++ {
		fleetBoards = append(fleetBoards,
			boardRef{Node: n, Board: 0, Cfg: boardConfig("partition")},
			boardRef{Node: n, Board: 1, Cfg: boardConfig("amorphous")})
	}
	base := []string{"-boards", "2", "-managers", "dynamic", "-rate", "0"}
	return []workloadDef{
		{
			Name: "warm-mix", Flags: base, Boards: single, Warmup: true,
			OpenRate: 300, Ladder: []float64{300, 450, 600, 750, 900, 1050, 1200},
		},
		{Name: "new-designs", Flags: base, Boards: single},
		{
			Name: "fleet-mix",
			Flags: []string{"-nodes", "2", "-boards-per-node", "2", "-managers", "partition,amorphous",
				"-placement", "packing", "-rate", "0"},
			Boards: fleetBoards, Warmup: true, OpenRate: 200,
		},
	}
}

// boardIndex returns the index in w.Boards of board id of node (node is
// ignored on a single-node daemon), or -1.
func (w workloadDef) boardIndex(node, id int) int {
	for i, b := range w.Boards {
		if b.Board == id && (b.Node < 0 || b.Node == node) {
			return i
		}
	}
	return -1
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request is one pre-generated submission.
type request struct {
	Due    time.Duration // offset from phase start (open loop only)
	Tenant string
	Spec   workload.Spec
	Node   *int
	Board  *int
	Body   []byte // the POST /v1/jobs body, encoded before timing
	Key    string // canonical spec JSON: the output-check key
}

func newRequest(due time.Duration, tenant string, spec workload.Spec, node, board *int) (request, error) {
	key, err := json.Marshal(&spec)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(serve.SubmitRequest{Tenant: tenant, Workload: spec, Node: node, Board: board})
	if err != nil {
		return request{}, err
	}
	return request{Due: due, Tenant: tenant, Spec: spec, Node: node, Board: board, Body: body, Key: string(key)}, nil
}

// inputs is everything a run sends, generated from the seed before the
// daemon starts. Rounds holds the measured requests: one round on the
// open-loop workloads; on new-designs, one per fresh daemon.
type inputs struct {
	Warmup []request
	Rounds [][]request
	Ladder [][]request
}

// measured returns every round's requests, in order.
func (in *inputs) measured() []request {
	var out []request
	for _, round := range in.Rounds {
		out = append(out, round...)
	}
	return out
}

func intp(v int) *int { return &v }

// generate builds a workload's inputs. The same (workload, seed,
// seconds) always yields byte-identical request bodies and due times.
func generate(w workloadDef, seed uint64, seconds int) (*inputs, error) {
	in := &inputs{}
	if w.Warmup {
		for _, b := range w.Boards {
			for _, spec := range workload.BuiltinSpecs() {
				var node *int
				if b.Node >= 0 {
					node = intp(b.Node)
				}
				r, err := newRequest(0, "warmup", spec, node, intp(b.Board))
				if err != nil {
					return nil, err
				}
				in.Warmup = append(in.Warmup, r)
			}
		}
	}
	if w.OpenRate > 0 {
		main, err := openLoop(seed, w.OpenRate, float64(seconds))
		if err != nil {
			return nil, err
		}
		in.Rounds = [][]request{main}
		for i, rate := range w.Ladder {
			step, err := openLoop(seed*1000+uint64(i)+1, rate, ladderStepSec)
			if err != nil {
				return nil, err
			}
			in.Ladder = append(in.Ladder, step)
		}
		return in, nil
	}
	src := rng.New(seed)
	for r := 0; r < max(1, seconds/roundSeconds); r++ {
		round, err := newDesigns(src.Split(), designBlocks, designK)
		if err != nil {
			return nil, err
		}
		in.Rounds = append(in.Rounds, round)
	}
	return in, nil
}

// openLoop draws a Poisson arrival stream over loadgen.DefaultMix and
// rescales it so the last arrival falls exactly at dur: the offered
// rate is then the same for every seed, only the spacing and the mix
// differ.
func openLoop(seed uint64, rate, dur float64) ([]request, error) {
	n := int(rate * dur)
	tr, err := loadgen.Generate(loadgen.GenConfig{
		Arrival:      loadgen.ArrivalPoisson,
		Jobs:         n,
		MeanInterval: sim.Time(float64(time.Second) / rate),
		Seed:         seed,
		Mix:          loadgen.DefaultMix(tenants),
	})
	if err != nil {
		return nil, err
	}
	last := float64(tr.Entries[len(tr.Entries)-1].At)
	scale := dur * float64(time.Second) / last
	out := make([]request, 0, n)
	for _, e := range tr.Entries {
		r, err := newRequest(time.Duration(float64(e.At)*scale), e.Tenant, e.Spec, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// registryNames returns every netlist registry name, sorted.
func registryNames() []string {
	var names []string
	for n := range netlist.Registry() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newDesigns draws one round of synthetic jobs, each over an ordered
// pool of k distinct circuits from the whole registry. A circuit's
// compile seed depends on its position in the pool, so the same
// circuit at another position is another cache key.
//
// The draw is balanced: a block of n jobs (n registry circuits) takes a
// seeded permutation π and a seeded stride s, and job i of the block
// gets π[(i+p·s) mod n] at position p. Every circuit then sits at every
// position exactly once per block, so whatever the seed each round
// compiles every (circuit, position) key and has exactly blocks·k jobs
// holding div16. The jobs of all blocks are then shuffled, so the first
// use of each key falls anywhere in the round.
func newDesigns(src *rng.Source, blocks, k int) ([]request, error) {
	names := registryNames()
	n := len(names)
	var pools [][]string
	for b := 0; b < blocks; b++ {
		perm := src.Perm(n)
		stride := 1 + src.Intn(n-1)
		for !strideOK(stride, k, n) {
			stride = 1 + src.Intn(n-1)
		}
		for i := 0; i < n; i++ {
			pool := make([]string, k)
			for p := range pool {
				pool[p] = names[perm[(i+p*stride)%n]]
			}
			pools = append(pools, pool)
		}
	}
	src.Shuffle(len(pools), func(i, j int) { pools[i], pools[j] = pools[j], pools[i] })
	out := make([]request, 0, len(pools))
	for i, pool := range pools {
		syn := workload.DefaultSynthetic()
		syn.Pool = pool
		r, err := newRequest(0, fmt.Sprintf("tenant-%d", i%2), workload.Spec{Scenario: "synthetic", Synthetic: &syn}, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// strideOK reports whether positions 0..k-1 at this stride land on k
// distinct residues mod n, so a pool never repeats a circuit.
func strideOK(stride, k, n int) bool {
	seen := map[int]bool{}
	for p := 0; p < k; p++ {
		r := p * stride % n
		if seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

// digest hashes every request body and due time, in order.
func (in *inputs) digest() string {
	h := sha256.New()
	add := func(rs []request) {
		for _, r := range rs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(r.Due))
			h.Write(b[:])
			h.Write(r.Body)
		}
	}
	add(in.Warmup)
	for _, round := range in.Rounds {
		add(round)
	}
	for _, step := range in.Ladder {
		add(step)
	}
	return hex.EncodeToString(h.Sum(nil))
}

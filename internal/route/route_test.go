package route

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/techmap"
)

func placed(t *testing.T, nl *netlist.Netlist) *place.Placement {
	t.Helper()
	m, err := techmap.Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	p, err := place.Place(m, w, h, place.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRouteLibrarySample(t *testing.T) {
	for _, nl := range []*netlist.Netlist{
		netlist.Adder(8), netlist.Multiplier(4), netlist.Counter(8),
		netlist.ALU(8), netlist.LFSR(16, []int{15, 13, 12, 10}),
	} {
		p := placed(t, nl)
		r, err := Route(p, 12, Options{})
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if r.MaxUse > 12 {
			t.Fatalf("%s: max use %d exceeds capacity", nl.Name, r.MaxUse)
		}
		if r.TotalHops <= 0 {
			t.Fatalf("%s: no hops routed", nl.Name)
		}
	}
}

func TestRouteCoversAllConnections(t *testing.T) {
	p := placed(t, netlist.Adder(8))
	r, err := Route(p, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Count expected connections: every non-const cell input + non-const output.
	want := 0
	for _, c := range p.Mapped.Cells {
		for _, in := range c.Inputs {
			if in.Kind != techmap.SigConst {
				want++
			}
		}
	}
	for _, o := range p.Mapped.Outputs {
		if o.Kind != techmap.SigConst {
			want++
		}
	}
	if len(r.Conns) != want {
		t.Fatalf("routed %d connections, want %d", len(r.Conns), want)
	}
	for i := range r.Conns {
		c := &r.Conns[i]
		if len(c.Path) == 0 {
			t.Fatalf("connection %d has empty path", i)
		}
		if c.Path[0] != r.srcLoc(c.Src) || c.Path[len(c.Path)-1] != r.sinkLoc(c.Sink) {
			t.Fatalf("connection %d endpoints wrong", i)
		}
		for k := 0; k+1 < len(c.Path); k++ {
			dx := c.Path[k+1].X - c.Path[k].X
			dy := c.Path[k+1].Y - c.Path[k].Y
			if dx*dx+dy*dy != 1 {
				t.Fatalf("connection %d path not orthogonally contiguous", i)
			}
		}
	}
}

func TestRouteRespectsCapacity(t *testing.T) {
	p := placed(t, netlist.Multiplier(4))
	r, err := Route(p, 6, Options{})
	if err != nil {
		t.Skipf("mul4 unroutable at 6 tracks in this placement: %v", err)
	}
	// Occupancy counts each net once per edge, however many sinks share it.
	g := grid{w: p.W, h: p.H}
	used := map[techmap.Signal]map[edgeID]bool{}
	for i := range r.Conns {
		c := &r.Conns[i]
		set := used[c.Src]
		if set == nil {
			set = map[edgeID]bool{}
			used[c.Src] = set
		}
		for k := 0; k+1 < len(c.Path); k++ {
			set[g.edgeBetween(g.node(c.Path[k]), g.node(c.Path[k+1]))] = true
		}
	}
	occ := make([]int, g.numEdges())
	for _, set := range used {
		for e := range set {
			occ[e]++
		}
	}
	for e, u := range occ {
		if u > 6 {
			t.Fatalf("edge %d used by %d nets with capacity 6", e, u)
		}
	}
}

func TestRouteFailsOnImpossibleCapacity(t *testing.T) {
	p := placed(t, netlist.Multiplier(6))
	if _, err := Route(p, 1, Options{MaxIterations: 5}); err == nil {
		t.Fatal("1-track routing of mul6 should fail")
	}
}

func TestRouteInvalidTracks(t *testing.T) {
	p := placed(t, netlist.Adder(4))
	if _, err := Route(p, 0, Options{}); err == nil {
		t.Fatal("0 tracks accepted")
	}
}

func TestCriticalPathPositiveAndScales(t *testing.T) {
	p := placed(t, netlist.Multiplier(4))
	r, err := Route(p, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp1 := r.CriticalPath(3*sim.Nanosecond, 1*sim.Nanosecond)
	if cp1 <= 0 {
		t.Fatalf("critical path %v", cp1)
	}
	cp2 := r.CriticalPath(6*sim.Nanosecond, 2*sim.Nanosecond)
	if cp2 != 2*cp1 {
		t.Fatalf("critical path does not scale linearly: %v vs %v", cp1, cp2)
	}
	// Deeper logic must have a longer critical path than a single LUT.
	if cp1 < sim.Time(p.Mapped.Depth)*3*sim.Nanosecond {
		t.Fatalf("critical path %v below depth*LUT %d", cp1, p.Mapped.Depth*3)
	}
}

func TestCriticalPathSequentialBounded(t *testing.T) {
	// A counter's register-to-register paths are short; the critical path
	// should be far below the whole-design-serial bound.
	p := placed(t, netlist.Counter(16))
	r, err := Route(p, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := r.CriticalPath(3*sim.Nanosecond, 1*sim.Nanosecond)
	if cp <= 0 {
		t.Fatal("zero critical path for sequential design")
	}
	serialBound := sim.Time(len(p.Mapped.Cells)) * 10 * sim.Nanosecond
	if cp > serialBound {
		t.Fatalf("critical path %v exceeds serial bound %v", cp, serialBound)
	}
}

func TestGridEdgeIndexing(t *testing.T) {
	g := newGrid(4, 3)
	if g.numEdges() != (4-1)*3+4*(3-1) {
		t.Fatalf("numEdges = %d", g.numEdges())
	}
	seen := map[edgeID]bool{}
	for n := 0; n < g.nodes(); n++ {
		var buf [4]int
		nbs := g.neighbors(n, buf[:0])
		for k, nb := range nbs {
			e := g.edgeBetween(n, nb)
			if e < 0 || int(e) >= g.numEdges() {
				t.Fatalf("edge id %d out of range", e)
			}
			if g.edgeBetween(nb, n) != e {
				t.Fatal("edge id not symmetric")
			}
			if a := g.adj[n][k]; int(a.to) != nb || edgeID(a.edge) != e {
				t.Fatalf("adjacency row %d entry %d = %+v, want {%d %d}", n, k, a, nb, e)
			}
			seen[e] = true
		}
		for k := len(nbs); k < 4; k++ {
			if g.adj[n][k].to >= 0 {
				t.Fatalf("adjacency row %d has extra entry %d", n, k)
			}
		}
	}
	if len(seen) != g.numEdges() {
		t.Fatalf("enumerated %d distinct edges, want %d", len(seen), g.numEdges())
	}
}

// uniformCost returns a cost slice giving every edge of g cost 1.
func uniformCost(g *grid) []float64 {
	cost := make([]float64, g.numEdges())
	for i := range cost {
		cost[i] = 1
	}
	return cost
}

// checkEdges fails unless edges are exactly the edges between
// consecutive nodes of path.
func checkEdges(t *testing.T, g *grid, path []int, edges []int32) {
	t.Helper()
	if len(edges) != len(path)-1 {
		t.Fatalf("%d edges for a %d-node path", len(edges), len(path))
	}
	for k, e := range edges {
		if want := g.edgeBetween(path[k], path[k+1]); edgeID(e) != want {
			t.Fatalf("edge %d = %d, want %d", k, e, want)
		}
	}
}

func TestShortestPathStraightLine(t *testing.T) {
	g := newGrid(5, 5)
	s := newRouteScratch(g.nodes())
	path, edges := s.shortestPath(g, uniformCost(g), g.node(place.Loc{X: 0, Y: 2}), g.node(place.Loc{X: 4, Y: 2}))
	if len(path) != 5 {
		t.Fatalf("path length %d, want 5", len(path))
	}
	checkEdges(t, g, path, edges)
}

func TestShortestPathSameNode(t *testing.T) {
	g := newGrid(3, 3)
	s := newRouteScratch(g.nodes())
	path, edges := s.shortestPath(g, uniformCost(g), 4, 4)
	if len(path) != 1 || path[0] != 4 || len(edges) != 0 {
		t.Fatalf("self path = %v, edges %v", path, edges)
	}
}

func TestShortestPathAvoidsExpensiveEdges(t *testing.T) {
	// Make the direct row expensive; the path should detour.
	g := newGrid(3, 2)
	cost := uniformCost(g)
	cost[g.edgeBetween(g.node(place.Loc{X: 0, Y: 0}), g.node(place.Loc{X: 1, Y: 0}))] = 100
	s := newRouteScratch(g.nodes())
	path, edges := s.shortestPath(g, cost, g.node(place.Loc{X: 0, Y: 0}), g.node(place.Loc{X: 2, Y: 0}))
	if len(path) != 5 { // detour via row 1
		t.Fatalf("expected detour of 4 hops, got path %v", path)
	}
	checkEdges(t, g, path, edges)
}

// TestShortestPathScratchReuse checks that a reused scratch returns the
// same paths as a fresh one: generation stamping must fully invalidate
// earlier searches, including ones over a different cost field.
func TestShortestPathScratchReuse(t *testing.T) {
	g := newGrid(7, 5)
	reused := newRouteScratch(g.nodes())
	src := rng.New(42)
	cost := make([]float64, g.numEdges())
	for trial := 0; trial < 50; trial++ {
		for i := range cost {
			cost[i] = 0.1 + src.Float64()
		}
		from := src.Intn(g.nodes())
		to := src.Intn(g.nodes())
		got, gotEdges := reused.shortestPath(g, cost, from, to)
		want, _ := newRouteScratch(g.nodes()).shortestPath(g, cost, from, to)
		if len(got) != len(want) {
			t.Fatalf("trial %d: path length %d != fresh %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: path diverges at hop %d: %v vs %v", trial, k, got, want)
			}
		}
		checkEdges(t, g, got, gotEdges)
	}
}

// swapHeap is the textbook swap-based binary min-heap the router's
// hole-moving heap must match pop for pop, ties included.
type swapHeap []struct {
	node int32
	cost float64
}

func (h *swapHeap) push(node int32, cost float64) {
	*h = append(*h, struct {
		node int32
		cost float64
	}{node, cost})
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent].cost <= a[i].cost {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

func (h *swapHeap) pop() (int32, float64) {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	*h = a
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && a[l].cost < a[min].cost {
			min = l
		}
		if r < last && a[r].cost < a[min].cost {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top.node, top.cost
}

// TestHeapMatchesSwapHeap drives the router's heap and the reference
// with the same random pushes and pops over a handful of distinct costs,
// so most entries tie, and requires identical pop sequences.
func TestHeapMatchesSwapHeap(t *testing.T) {
	src := rng.New(7)
	s := newRouteScratch(1)
	var ref swapHeap
	for op := 0; op < 20000; op++ {
		if len(ref) == 0 || src.Intn(5) < 3 {
			node, cost := int32(op), float64(src.Intn(6))*0.5
			s.hpush(node, cost)
			ref.push(node, cost)
			continue
		}
		gn, gc := s.hpop()
		wn, wc := ref.pop()
		if gn != wn || gc != wc {
			t.Fatalf("op %d: popped (%d, %v), reference (%d, %v)", op, gn, gc, wn, wc)
		}
	}
}

// TestShortestPathNoAllocs gates the allocation win: after warmup a
// search allocates nothing (the scratch owns every buffer).
func TestShortestPathNoAllocs(t *testing.T) {
	g := newGrid(32, 16)
	s := newRouteScratch(g.nodes())
	cost := make([]float64, g.numEdges())
	for e := range cost {
		cost[e] = 1 + float64(e%7)*0.25
	}
	from, to := 0, g.nodes()-1
	s.shortestPath(g, cost, from, to) // warm the scratch buffers
	if n := testing.AllocsPerRun(20, func() { s.shortestPath(g, cost, from, to) }); n != 0 {
		t.Fatalf("warmed shortestPath allocates %v times per search, want 0", n)
	}
}

func BenchmarkRouteShortestPath(b *testing.B) {
	g := newGrid(32, 16)
	s := newRouteScratch(g.nodes())
	cost := make([]float64, g.numEdges())
	for e := range cost {
		cost[e] = 1 + float64(e%7)*0.25
	}
	from, to := 0, g.nodes()-1
	s.shortestPath(g, cost, from, to) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.shortestPath(g, cost, from, to)
	}
}

func BenchmarkRouteAdder16(b *testing.B) {
	m, err := techmap.Map(netlist.Adder(16))
	if err != nil {
		b.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	p, err := place.Place(m, w, h, place.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(p, 12, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

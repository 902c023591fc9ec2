// Package route routes the connections of a placed design through the
// fabric's channel graph using PathFinder-style negotiated congestion:
// every source-to-sink connection gets a shortest path, connections bid
// for channel segments, and congestion history pushes latecomers around
// hot spots until no channel exceeds its track capacity.
//
// Routing is what grounds two physical effects the paper leans on: a
// region must have spare cells/channels to be routable (area slack), and
// wire delay grows with distance (placement quality shows up in the clock
// period).
package route

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/techmap"
)

// Sink identifies the endpoint of a connection: either a LUT input pin of
// a cell, or a primary output port.
type Sink struct {
	IsPort bool
	Cell   techmap.CellID // when !IsPort
	Input  int            // LUT pin index when !IsPort
	Port   int            // output port index when IsPort
}

// Connection is one routed source-to-sink path.
type Connection struct {
	Src  techmap.Signal // SigCell or SigInput (constants are not routed)
	Sink Sink
	Path []place.Loc // traversed cells, endpoints included
}

// Hops returns the number of channel segments the connection crosses.
func (c *Connection) Hops() int { return len(c.Path) - 1 }

// Result is a complete legal routing.
type Result struct {
	P          *place.Placement
	Conns      []Connection
	Tracks     int // channel capacity routed against
	MaxUse     int // maximum channel occupancy achieved
	Iterations int // negotiation iterations used
	TotalHops  int
}

// Options tunes the router.
type Options struct {
	// MaxIterations bounds the negotiation loop; 0 selects the default.
	MaxIterations int
}

// edge indexes the undirected channel between two adjacent cells.
// Horizontal edges: between (x,y) and (x+1,y); vertical between (x,y) and
// (x,y+1).
type edgeID int

// grid is the channel graph of a w x h region. adj caches, per node, its
// orthogonal neighbors and the edges to them in neighbors() order, so the
// search's inner loop does no index arithmetic.
type grid struct {
	w, h int
	adj  [][4]arc
}

// arc is one entry of a node's adjacency row; to < 0 ends the row.
type arc struct {
	to   int32
	edge int32
}

func newGrid(w, h int) *grid {
	g := &grid{w: w, h: h, adj: make([][4]arc, w*h)}
	var nbuf [4]int
	for n := range g.adj {
		row := &g.adj[n]
		for k := range row {
			row[k] = arc{to: -1}
		}
		for k, nb := range g.neighbors(n, nbuf[:0]) {
			row[k] = arc{to: int32(nb), edge: int32(g.edgeBetween(n, nb))}
		}
	}
	return g
}

func (g *grid) nodes() int { return g.w * g.h }
func (g *grid) node(l place.Loc) int {
	return l.Y*g.w + l.X
}
func (g *grid) loc(n int) place.Loc { return place.Loc{X: n % g.w, Y: n / g.w} }

// hEdges are indexed first, then vEdges.
func (g *grid) numEdges() int { return (g.w-1)*g.h + g.w*(g.h-1) }

// edgeBetween returns the edge id between two adjacent nodes.
func (g *grid) edgeBetween(a, b int) edgeID {
	la, lb := g.loc(a), g.loc(b)
	if la.Y == lb.Y { // horizontal
		x := la.X
		if lb.X < x {
			x = lb.X
		}
		return edgeID(la.Y*(g.w-1) + x)
	}
	y := la.Y
	if lb.Y < y {
		y = lb.Y
	}
	return edgeID((g.w-1)*g.h + y*g.w + la.X)
}

// neighbors appends the orthogonal neighbors of node n to buf.
func (g *grid) neighbors(n int, buf []int) []int {
	l := g.loc(n)
	if l.X > 0 {
		buf = append(buf, n-1)
	}
	if l.X < g.w-1 {
		buf = append(buf, n+1)
	}
	if l.Y > 0 {
		buf = append(buf, n-g.w)
	}
	if l.Y < g.h-1 {
		buf = append(buf, n+g.w)
	}
	return buf
}

// connections enumerates every routable connection of a placement in
// deterministic order.
func connections(p *place.Placement) []Connection {
	var conns []Connection
	for ci := range p.Mapped.Cells {
		for k, in := range p.Mapped.Cells[ci].Inputs {
			if in.Kind == techmap.SigConst {
				continue
			}
			conns = append(conns, Connection{
				Src:  in,
				Sink: Sink{Cell: techmap.CellID(ci), Input: k},
			})
		}
	}
	for oi, sig := range p.Mapped.Outputs {
		if sig.Kind == techmap.SigConst {
			continue
		}
		conns = append(conns, Connection{
			Src:  sig,
			Sink: Sink{IsPort: true, Port: oi},
		})
	}
	return conns
}

func (r *Result) srcLoc(sig techmap.Signal) place.Loc {
	if sig.Kind == techmap.SigCell {
		return r.P.Cells[sig.Cell]
	}
	return r.P.InPorts[sig.Input]
}

func (r *Result) sinkLoc(s Sink) place.Loc {
	if s.IsPort {
		return r.P.OutPorts[s.Port]
	}
	return r.P.Cells[s.Cell]
}

// routeScratch holds every buffer shortestPath needs, so the thousands of
// per-net searches a negotiation run performs share one set of
// allocations. Visited state is generation-stamped instead of cleared:
// bumping gen invalidates dist/prev/done for all nodes in O(1).
type routeScratch struct {
	dist     []float64
	prev     []int
	prevEdge []int32  // edge from prev[n] to n
	seenGen  []uint32 // seenGen[n] == gen: dist/prev valid this search
	doneGen  []uint32 // doneGen[n] == gen: node settled this search
	gen      uint32
	hcost    []float64 // manual binary min-heap of (cost, node), one
	hnode    []int32   // slice per field so sift-down scans only costs
	path     []int
	edges    []int32
}

func newRouteScratch(nodes int) *routeScratch {
	s := &routeScratch{}
	s.ensure(nodes)
	return s
}

// ensure sizes the node-indexed buffers for a grid of n nodes.
func (s *routeScratch) ensure(n int) {
	if len(s.dist) >= n {
		return
	}
	s.dist = make([]float64, n)
	s.prev = make([]int, n)
	s.prevEdge = make([]int32, n)
	s.seenGen = make([]uint32, n)
	s.doneGen = make([]uint32, n)
	s.gen = 0
}

// nextGen starts a new search, handling the (theoretical) wraparound.
func (s *routeScratch) nextGen() {
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could collide, so clear
		for i := range s.seenGen {
			s.seenGen[i] = 0
			s.doneGen[i] = 0
		}
		s.gen = 1
	}
}

// hpush and hpop move a hole instead of swapping, and leave the heap in
// exactly the state a swap-based binary heap would, so equal-cost entries
// pop in the same order. hpop moves the hole down the smaller-child path
// to a leaf and then raises the last entry back up to where a swapping
// sift-down would have stopped: the path is nondecreasing, so that is
// below every path entry smaller than it and above every other.
func (s *routeScratch) hpush(node int32, cost float64) {
	s.hcost = append(s.hcost, cost)
	s.hnode = append(s.hnode, node)
	hc, hn := s.hcost, s.hnode[:len(s.hcost)]
	i := len(hc) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hc[parent] <= cost {
			break
		}
		hc[i], hn[i] = hc[parent], hn[parent]
		i = parent
	}
	hc[i], hn[i] = cost, node
}

func (s *routeScratch) hpop() (int32, float64) {
	hc, hn := s.hcost, s.hnode[:len(s.hcost)]
	topNode, topCost := hn[0], hc[0]
	last := len(hc) - 1
	x, xn := hc[last], hn[last]
	s.hcost, s.hnode = hc[:last], hn[:last]
	if last == 0 {
		return topNode, topCost
	}
	// The vacated slot becomes an infinite sentinel, so a left child at
	// last-1 can be compared with its "right sibling" unconditionally.
	hc[last] = math.Inf(1)
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		l += b2i(hc[l+1] < hc[l])
		hc[i], hn[i] = hc[l], hn[l]
		i = l
	}
	for i > 0 {
		parent := (i - 1) / 2
		if hc[parent] < x {
			break
		}
		hc[i], hn[i] = hc[parent], hn[parent]
		i = parent
	}
	hc[i], hn[i] = x, xn
	return topNode, topCost
}

// b2i compiles to a flag set rather than a branch, which keeps hpop's
// child choice free of mispredictions on tied or random costs.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// negotiation is the PathFinder congestion state of one Route call. cost
// holds every edge's current search cost; refresh must run for an edge
// whenever its occ or inNet changes, and for every edge when presFac or
// hist changes, so cost always equals what the formula gives now.
type negotiation struct {
	tracks  int
	presFac float64   // present-congestion factor, grown every iteration
	occ     []int     // present occupancy
	hist    []float64 // history cost
	inNet   []bool    // edges already carried by the net being routed
	cost    []float64
}

func (ng *negotiation) refresh(e int32) {
	if ng.inNet[e] {
		ng.cost[e] = 1e-4 // already carried by this net: reuse freely
		return
	}
	over := float64(ng.occ[e] + 1 - ng.tracks)
	if over < 0 {
		over = 0
	}
	ng.cost[e] = (1 + ng.hist[e]) * (1 + over*ng.presFac)
}

// Route produces a legal routing of p against the given channel capacity.
func Route(p *place.Placement, tracks int, opt Options) (*Result, error) {
	if tracks <= 0 {
		return nil, fmt.Errorf("route: non-positive track count %d", tracks)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 40
	}
	g := newGrid(p.W, p.H)
	res := &Result{P: p, Tracks: tracks, Conns: connections(p)}

	// Group connections into nets by driving signal: a net's fanout shares
	// one routing tree, so a channel segment carries a net once no matter
	// how many sinks lie beyond it.
	netOf := map[techmap.Signal][]int{}
	var netOrder []techmap.Signal
	for i := range res.Conns {
		s := res.Conns[i].Src
		if _, ok := netOf[s]; !ok {
			netOrder = append(netOrder, s)
		}
		netOf[s] = append(netOf[s], i)
	}

	ng := &negotiation{
		tracks:  tracks,
		presFac: 0.5,
		occ:     make([]int, g.numEdges()),
		hist:    make([]float64, g.numEdges()),
		inNet:   make([]bool, g.numEdges()),
		cost:    make([]float64, g.numEdges()),
	}
	paths := make([][]int, len(res.Conns))
	scratch := newRouteScratch(g.nodes())
	var netEdges []int32
	for iter := 1; iter <= maxIter; iter++ {
		res.Iterations = iter
		// Rip up everything and re-route in order with current costs.
		for i := range ng.occ {
			ng.occ[i] = 0
		}
		for e := range ng.cost {
			ng.refresh(int32(e))
		}
		for _, src := range netOrder {
			conns := netOf[src]
			netEdges = netEdges[:0]
			for _, i := range conns {
				c := &res.Conns[i]
				from, to := g.node(res.srcLoc(c.Src)), g.node(res.sinkLoc(c.Sink))
				path, edges := scratch.shortestPath(g, ng.cost, from, to)
				paths[i] = append(paths[i][:0], path...)
				for _, e := range edges {
					if !ng.inNet[e] {
						ng.inNet[e] = true
						netEdges = append(netEdges, e)
						ng.occ[e]++
						ng.refresh(e)
					}
				}
			}
			for _, e := range netEdges {
				ng.inNet[e] = false
				ng.refresh(e)
			}
		}
		// Check for overuse.
		maxUse, over := 0, false
		for e, u := range ng.occ {
			if u > maxUse {
				maxUse = u
			}
			if u > tracks {
				over = true
				ng.hist[e] += float64(u - tracks)
			}
		}
		res.MaxUse = maxUse
		if !over {
			res.TotalHops = 0
			for i := range res.Conns {
				res.Conns[i].Path = make([]place.Loc, len(paths[i]))
				for k, n := range paths[i] {
					res.Conns[i].Path[k] = g.loc(n)
				}
				res.TotalHops += res.Conns[i].Hops()
			}
			return res, nil
		}
		ng.presFac *= 1.6
	}
	return nil, fmt.Errorf("route: %s unroutable in %dx%d with %d tracks after %d iterations (max use %d)",
		p.Mapped.Name, p.W, p.H, tracks, maxIter, res.MaxUse)
}

// shortestPath runs Dijkstra over g with cost[e] the cost of edge e. It
// returns the path's nodes, from first, and the edges between them in the
// same order. Both slices alias the scratch buffers and are valid only
// until the next call, so callers that keep a path must copy it. Beyond
// amortized buffer growth the search allocates nothing.
func (s *routeScratch) shortestPath(g *grid, cost []float64, from, to int) ([]int, []int32) {
	s.path = s.path[:0]
	s.edges = s.edges[:0]
	if from == to {
		s.path = append(s.path, from)
		return s.path, s.edges
	}
	s.ensure(g.nodes())
	s.nextGen()
	gen := s.gen
	s.hcost, s.hnode = s.hcost[:0], s.hnode[:0]
	s.dist[from] = 0
	s.seenGen[from] = gen
	s.hpush(int32(from), 0)
	for len(s.hcost) > 0 {
		node, dist := s.hpop()
		if s.doneGen[node] == gen {
			continue
		}
		s.doneGen[node] = gen
		if int(node) == to {
			break
		}
		for _, a := range &g.adj[node] {
			if a.to < 0 {
				break
			}
			nb := int(a.to)
			if s.doneGen[nb] == gen {
				continue
			}
			c := dist + cost[a.edge]
			if s.seenGen[nb] != gen || c < s.dist[nb] {
				s.seenGen[nb] = gen
				s.dist[nb] = c
				s.prev[nb] = int(node)
				s.prevEdge[nb] = a.edge
				s.hpush(a.to, c)
			}
		}
	}
	if s.doneGen[to] != gen {
		panic("route: grid is connected; unreachable node")
	}
	for n := to; n != from; n = s.prev[n] {
		s.path = append(s.path, n)
		s.edges = append(s.edges, s.prevEdge[n])
	}
	s.path = append(s.path, from)
	slices.Reverse(s.path)
	slices.Reverse(s.edges)
	return s.path, s.edges
}

// CriticalPath returns the longest combinational delay through the routed
// design: LUT delay per logic level plus hop delay per channel segment,
// over all register-to-register, input-to-register, register-to-output
// and input-to-output paths.
func (r *Result) CriticalPath(lutDelay, hopDelay sim.Time) sim.Time {
	m := r.P.Mapped
	// hops[sink] for cell-input connections, indexed [cell][pin].
	hops := make(map[[2]int]int)
	outHops := make(map[int]int)
	for i := range r.Conns {
		c := &r.Conns[i]
		if c.Sink.IsPort {
			outHops[c.Sink.Port] = c.Hops()
		} else {
			hops[[2]int{int(c.Sink.Cell), c.Sink.Input}] = c.Hops()
		}
	}
	// arrival time of each cell's output (combinational cells only; FF
	// outputs and inputs are time-zero sources).
	arrival := make([]sim.Time, len(m.Cells))
	state := make([]uint8, len(m.Cells))
	crit := sim.Time(0)
	var arrive func(ci int) sim.Time
	inputArrival := func(ci int) sim.Time {
		worst := sim.Time(0)
		for k, in := range m.Cells[ci].Inputs {
			var src sim.Time
			switch in.Kind {
			case techmap.SigCell:
				if !m.Cells[in.Cell].UseFF {
					src = arrive(int(in.Cell))
				}
			case techmap.SigInput, techmap.SigConst:
				src = 0
			}
			t := src + sim.Time(hops[[2]int{ci, k}])*hopDelay
			if t > worst {
				worst = t
			}
		}
		return worst
	}
	arrive = func(ci int) sim.Time {
		if state[ci] == 2 {
			return arrival[ci]
		}
		if state[ci] == 1 {
			return 0 // cycles only via FFs; guarded by techmap validation
		}
		state[ci] = 1
		arrival[ci] = inputArrival(ci) + lutDelay
		state[ci] = 2
		return arrival[ci]
	}
	for ci := range m.Cells {
		// Every cell's D/LUT input path terminates a timing path when the
		// cell is registered; otherwise it contributes via consumers, but
		// we still take it as a lower bound (covers dangling comb cells).
		t := inputArrival(ci) + lutDelay
		if t > crit {
			crit = t
		}
	}
	for oi, sig := range m.Outputs {
		var src sim.Time
		if sig.Kind == techmap.SigCell && !m.Cells[sig.Cell].UseFF {
			src = arrive(int(sig.Cell))
		}
		t := src + sim.Time(outHops[oi])*hopDelay
		if t > crit {
			crit = t
		}
	}
	return crit
}

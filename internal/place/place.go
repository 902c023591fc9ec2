// Package place assigns the cells of a technology-mapped design to CLB
// locations inside a rectangular region. Placements are expressed in
// region-relative coordinates, which is what makes compiled circuits
// relocatable: the paper's variable partitioning and garbage collection
// depend on loading the same configuration "virtually in any location of
// the FPGA".
//
// The placer is a greedy scan-order seed refined by simulated annealing
// over half-perimeter wirelength. It is deterministic for a given seed.
package place

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/techmap"
)

// Loc is a region-relative CLB coordinate.
type Loc struct {
	X, Y int
}

// Placement maps every cell of a mapped design to a distinct location in a
// W x H region (origin at (0,0); the loader translates on download).
type Placement struct {
	Mapped *techmap.Mapped
	W, H   int
	Cells  []Loc // indexed by CellID
	// InPorts and OutPorts are the nominal boundary positions of the
	// primary inputs and outputs, used for wirelength and routing; the
	// manager binds them to physical device pins at load time.
	InPorts  []Loc
	OutPorts []Loc
	// Wirelength is the final half-perimeter wirelength (quality metric).
	Wirelength int
}

// Options tunes the placer.
type Options struct {
	Seed uint64
	// Effort scales the annealing schedule; 0 selects the default. Higher
	// effort improves wirelength at linear cost.
	Effort int
}

// Shape returns a near-square region shape with enough cells for the
// design plus routing slack. The minimum slack keeps the router from
// being boxed in on dense designs.
func Shape(cells int) (w, h int) {
	if cells <= 0 {
		return 1, 1
	}
	target := cells + cells/8 + 1 // ~12% slack
	w = int(math.Ceil(math.Sqrt(float64(target))))
	h = (target + w - 1) / w
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return w, h
}

// net is a source position index plus sink position indices into the
// placer's combined position table.
type net struct {
	pins []int32 // indices into pos; pins[0] is the source
}

// placer state. pos is the combined position table: [0, nCells) are the
// movable cells, then the fixed input ports, then the fixed output ports.
type placer struct {
	m      *techmap.Mapped
	w, h   int
	nCells int
	pos    []Loc
	nets   []net
	netsAt [][]int32 // nets touching each cell
	src    *rng.Source

	// Annealing state. grid is the dense occupancy map (cell index at
	// y*w+x, -1 when free); netCost caches each net's current HPWL. A
	// move gathers the nets it touches into touched, generation-stamped
	// in mark so a net shared by both moved cells counts once, and
	// computes their post-move HPWL into newCost; the cache takes the
	// new values only when the move is accepted.
	grid    []int32
	netCost []int
	mark    []uint32
	gen     uint32
	touched []int32
	newCost []int
}

// newPlacer seeds ports and cells and builds the nets of m in a w x h
// region.
func newPlacer(m *techmap.Mapped, w, h int) *placer {
	n := m.NumCells()
	p := &placer{m: m, w: w, h: h, nCells: n,
		pos: make([]Loc, n+m.NumInputs+len(m.Outputs))}
	p.seedCells()
	p.seedPorts()
	p.buildNets()
	return p
}

// Place places m into a w x h region. It returns an error if the region
// is too small.
func Place(m *techmap.Mapped, w, h int, opt Options) (*Placement, error) {
	if m.NumCells() > w*h {
		return nil, fmt.Errorf("place: %s needs %d cells, region %dx%d has %d",
			m.Name, m.NumCells(), w, h, w*h)
	}
	p := newPlacer(m, w, h)
	p.src = rng.New(opt.Seed ^ 0x9e3779b97f4a7c15)
	effort := opt.Effort
	if effort <= 0 {
		effort = 1
	}
	p.anneal(effort)
	res := p.placement()
	res.Wirelength = res.TotalWirelength()
	return res, nil
}

// placement views the position table as a Placement. The three slices
// share pos; their capacities are capped so an append to one cannot
// overwrite another.
func (p *placer) placement() *Placement {
	n, in := p.nCells, p.nCells+p.m.NumInputs
	return &Placement{
		Mapped:   p.m,
		W:        p.w,
		H:        p.h,
		Cells:    p.pos[:n:n],
		InPorts:  p.pos[n:in:in],
		OutPorts: p.pos[in:],
	}
}

// seedPorts distributes input ports along the left edge and output ports
// along the right edge.
func (p *placer) seedPorts() {
	spread := func(locs []Loc, edgeX int) {
		n := len(locs)
		for i := range locs {
			y := 0
			if n > 1 {
				y = i * (p.h - 1) / (n - 1)
			}
			locs[i] = Loc{X: edgeX, Y: y}
		}
	}
	in := p.nCells + p.m.NumInputs
	spread(p.pos[p.nCells:in], 0)
	spread(p.pos[in:], p.w-1)
}

// seedCells assigns initial locations in scan order, which keeps
// topologically adjacent cells physically adjacent (cells are created in
// topological-ish order by the mapper).
func (p *placer) seedCells() {
	for i := 0; i < p.nCells; i++ {
		p.pos[i] = Loc{X: i % p.w, Y: i / p.w}
	}
}

// buildNets creates one net per driving signal.
func (p *placer) buildNets() {
	n := p.nCells
	bySource := make([][]int32, n+p.m.NumInputs) // source position index -> sink position indices
	addSink := func(sig techmap.Signal, sinkIdx int) {
		switch sig.Kind {
		case techmap.SigCell:
			bySource[sig.Cell] = append(bySource[sig.Cell], int32(sinkIdx))
		case techmap.SigInput:
			bySource[n+sig.Input] = append(bySource[n+sig.Input], int32(sinkIdx))
		}
	}
	for ci := range p.m.Cells {
		for _, in := range p.m.Cells[ci].Inputs {
			addSink(in, ci)
		}
	}
	for oi, sig := range p.m.Outputs {
		addSink(sig, n+p.m.NumInputs+oi)
	}
	p.netsAt = make([][]int32, n)
	// Deterministic net order: iterate sources in index order.
	for srcIdx, sinks := range bySource {
		if len(sinks) == 0 {
			continue
		}
		pins := append([]int32{int32(srcIdx)}, sinks...)
		netID := int32(len(p.nets))
		p.nets = append(p.nets, net{pins: pins})
		for _, pin := range pins {
			if int(pin) < n {
				p.netsAt[pin] = append(p.netsAt[pin], netID)
			}
		}
	}
}

// hpwl returns the half-perimeter wirelength of one net.
func (p *placer) hpwl(nt *net) int {
	minX, minY := math.MaxInt32, math.MaxInt32
	maxX, maxY := -1, -1
	for _, pin := range nt.pins {
		l := p.pos[pin]
		if l.X < minX {
			minX = l.X
		}
		if l.X > maxX {
			maxX = l.X
		}
		if l.Y < minY {
			minY = l.Y
		}
		if l.Y > maxY {
			maxY = l.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// startMove clears the touched-net set for a new move.
func (p *placer) startMove() {
	p.touched = p.touched[:0]
	p.gen++
	if p.gen == 0 { // wrapped: stale stamps could collide, so clear
		clear(p.mark)
		p.gen = 1
	}
}

// touch adds the nets of cell c not yet in the move's set and returns
// the sum of their cached wirelength.
func (p *placer) touch(c int) int {
	total := 0
	for _, nid := range p.netsAt[c] {
		if p.mark[nid] != p.gen {
			p.mark[nid] = p.gen
			p.touched = append(p.touched, nid)
			total += p.netCost[nid]
		}
	}
	return total
}

// moveCost recomputes the wirelength of the move's nets at the current
// positions into newCost and returns their sum.
func (p *placer) moveCost() int {
	p.newCost = p.newCost[:0]
	total := 0
	for _, nid := range p.touched {
		c := p.hpwl(&p.nets[nid])
		p.newCost = append(p.newCost, c)
		total += c
	}
	return total
}

// commitMove stores the move's recomputed wirelength in the cache.
func (p *placer) commitMove() {
	for k, nid := range p.touched {
		p.netCost[nid] = p.newCost[k]
	}
}

// anneal runs simulated annealing with swap and relocate moves.
func (p *placer) anneal(effort int) {
	nCells := p.nCells
	if nCells <= 1 || len(p.nets) == 0 {
		return
	}
	p.grid = make([]int32, p.w*p.h)
	for i := range p.grid {
		p.grid[i] = -1
	}
	for i, l := range p.pos[:nCells] {
		p.grid[l.Y*p.w+l.X] = int32(i)
	}
	p.netCost = make([]int, len(p.nets))
	for i := range p.nets {
		p.netCost[i] = p.hpwl(&p.nets[i])
	}
	p.mark = make([]uint32, len(p.nets))
	iters := effort * 160 * nCells
	temp := float64(p.w + p.h)
	cooling := math.Pow(0.005/temp, 1/float64(iters+1))
	for it := 0; it < iters; it++ {
		ci := p.src.Intn(nCells)
		target := Loc{X: p.src.Intn(p.w), Y: p.src.Intn(p.h)}
		cell := target.Y*p.w + target.X
		cj := int(p.grid[cell]) // -1 when target is free
		if cj == ci {
			temp *= cooling
			continue
		}
		p.startMove()
		before := p.touch(ci)
		old := p.pos[ci]
		if cj >= 0 {
			before += p.touch(cj)
			p.pos[cj] = old
		}
		p.pos[ci] = target
		if accept(before, p.moveCost(), temp, p.src) {
			p.commitMove()
			p.grid[cell] = int32(ci)
			p.grid[old.Y*p.w+old.X] = int32(cj)
		} else {
			p.pos[ci] = old
			if cj >= 0 {
				p.pos[cj] = target
			}
		}
		temp *= cooling
	}
}

func accept(before, after int, temp float64, src *rng.Source) bool {
	if after <= before {
		return true
	}
	return src.Float64() < math.Exp(float64(before-after)/temp)
}

// TotalWirelength recomputes the HPWL of the placement (exposed for tests
// and reports).
func (pl *Placement) TotalWirelength() int {
	p := &placer{m: pl.Mapped, w: pl.W, h: pl.H, nCells: len(pl.Cells)}
	p.pos = make([]Loc, 0, len(pl.Cells)+len(pl.InPorts)+len(pl.OutPorts))
	p.pos = append(append(append(p.pos, pl.Cells...), pl.InPorts...), pl.OutPorts...)
	p.buildNets()
	total := 0
	for i := range p.nets {
		total += p.hpwl(&p.nets[i])
	}
	return total
}

// Validate checks that the placement is legal: every cell inside the
// region, no two cells on the same location.
func (pl *Placement) Validate() error {
	seen := make(map[Loc]techmap.CellID, len(pl.Cells))
	for i, l := range pl.Cells {
		if l.X < 0 || l.X >= pl.W || l.Y < 0 || l.Y >= pl.H {
			return fmt.Errorf("place: cell %d at %v outside %dx%d", i, l, pl.W, pl.H)
		}
		if prev, dup := seen[l]; dup {
			return fmt.Errorf("place: cells %d and %d share %v", prev, i, l)
		}
		seen[l] = techmap.CellID(i)
	}
	return nil
}

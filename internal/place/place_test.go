package place

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/techmap"
)

func mustMap(t *testing.T, nl *netlist.Netlist) *techmap.Mapped {
	t.Helper()
	m, err := techmap.Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestShape(t *testing.T) {
	cases := []struct{ cells, minArea int }{
		{0, 1}, {1, 1}, {10, 10}, {100, 100}, {576, 576},
	}
	for _, c := range cases {
		w, h := Shape(c.cells)
		if w*h < c.minArea {
			t.Fatalf("Shape(%d) = %dx%d too small", c.cells, w, h)
		}
		if c.cells > 4 && w*h > 2*c.cells+4 {
			t.Fatalf("Shape(%d) = %dx%d wastes too much", c.cells, w, h)
		}
	}
}

func TestPlaceLegal(t *testing.T) {
	for _, nl := range []*netlist.Netlist{
		netlist.Adder(8), netlist.Multiplier(4), netlist.Counter(8), netlist.ALU(8),
	} {
		m := mustMap(t, nl)
		w, h := Shape(m.NumCells())
		p, err := Place(m, w, h, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if len(p.InPorts) != m.NumInputs || len(p.OutPorts) != len(m.Outputs) {
			t.Fatalf("%s: port counts wrong", nl.Name)
		}
	}
}

func TestPlaceTooSmall(t *testing.T) {
	m := mustMap(t, netlist.Adder(8))
	if _, err := Place(m, 2, 2, Options{}); err == nil {
		t.Fatal("placement into too-small region accepted")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	m := mustMap(t, netlist.Adder(16))
	w, h := Shape(m.NumCells())
	a, err := Place(m, w, h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(m, w, h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d placed differently across identical runs", i)
		}
	}
}

func TestAnnealingImprovesOverScanOrder(t *testing.T) {
	m := mustMap(t, netlist.Multiplier(6))
	w, h := Shape(m.NumCells())
	// Scan-order-only baseline: the placer's seed state before annealing.
	base := newPlacer(m, w, h).placement().TotalWirelength()

	annealed, err := Place(m, w, h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if annealed.Wirelength > base {
		t.Fatalf("annealed WL %d worse than scan-order %d", annealed.Wirelength, base)
	}
}

func TestHigherEffortNotWorse(t *testing.T) {
	m := mustMap(t, netlist.ALU(8))
	w, h := Shape(m.NumCells())
	low, err := Place(m, w, h, Options{Seed: 5, Effort: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Place(m, w, h, Options{Seed: 5, Effort: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Annealing is stochastic; allow a small regression margin.
	if float64(high.Wirelength) > 1.15*float64(low.Wirelength) {
		t.Fatalf("effort 4 WL %d much worse than effort 1 WL %d", high.Wirelength, low.Wirelength)
	}
}

// TestAnnealAllocatesNothingPerMove gates the annealer's hot loop: all
// of its state is sized before the first move, so quadrupling the moves
// must not change the allocation count. alu8 has cells on more nets than
// a small map keeps on the stack, so a per-move set would show here.
func TestAnnealAllocatesNothingPerMove(t *testing.T) {
	m := mustMap(t, netlist.ALU(8))
	w, h := Shape(m.NumCells())
	allocs := func(effort int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Place(m, w, h, Options{Seed: 1, Effort: effort}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if lo, hi := allocs(1), allocs(4); lo != hi {
		t.Fatalf("Place allocates %v times at effort 1 and %v at effort 4", lo, hi)
	}
}

func TestZeroCellDesign(t *testing.T) {
	b := netlist.NewBuilder("wire")
	b.Output("y", b.Input("a"))
	m := mustMap(t, b.MustBuild())
	p, err := Place(m, 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWirelengthConsistent(t *testing.T) {
	m := mustMap(t, netlist.Adder(8))
	w, h := Shape(m.NumCells())
	p, err := Place(m, w, h, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if p.Wirelength != p.TotalWirelength() {
		t.Fatalf("stored WL %d != recomputed %d", p.Wirelength, p.TotalWirelength())
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	m := mustMap(t, netlist.Adder(4))
	w, h := Shape(m.NumCells())
	p, err := Place(m, w, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Cells[1] = p.Cells[0]
	if err := p.Validate(); err == nil {
		t.Fatal("overlapping cells not caught")
	}
}

func TestValidateCatchesOutOfRegion(t *testing.T) {
	m := mustMap(t, netlist.Adder(4))
	w, h := Shape(m.NumCells())
	p, err := Place(m, w, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Cells[0] = Loc{X: w, Y: 0}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-region cell not caught")
	}
}

func BenchmarkPlaceAdder16(b *testing.B) {
	m, err := techmap.Map(netlist.Adder(16))
	if err != nil {
		b.Fatal(err)
	}
	w, h := Shape(m.NumCells())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(m, w, h, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

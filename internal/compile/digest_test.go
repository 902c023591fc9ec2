package compile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/netlist"
)

// compileDigest is the SHA-256 of every registry circuit compiled as a
// 16-row strip at 12 tracks with seeds 1-6: placement cells, wirelength,
// every connection path and the bitstream's JSON form. Those are the
// compile keys a vfpgad board with the default config issues for
// six-circuit synthetic pools drawn from the whole registry.
const compileDigest = "5377c87b1108a75a2b4ecea5506ec4fe92662e99d24723b5f577064f47abe564"

// TestCompileDigestGolden pins the compile flow's output bit for bit.
// Speed work on the placer or router must leave it unchanged: the RNG
// draws, the annealer's accept decisions and the router's heap order
// (ties included) all feed this hash.
func TestCompileDigestGolden(t *testing.T) {
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	tm := fabric.DefaultTiming()
	h := sha256.New()
	for _, name := range names {
		nl := reg[name]()
		for seed := uint64(1); seed <= 6; seed++ {
			fmt.Fprintf(h, "%s seed=%d\n", name, seed)
			c, err := CompileStrip(nl, 16, 12, Options{Seed: seed, Timing: &tm})
			if err != nil {
				fmt.Fprintln(h, "unroutable")
				continue
			}
			fmt.Fprintf(h, "cells=%v wl=%d\n", c.Placed.Cells, c.Placed.Wirelength)
			for i := range c.Routed.Conns {
				fmt.Fprintf(h, "%v\n", c.Routed.Conns[i].Path)
			}
			if err := c.BS.WriteJSON(h); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compileDigest {
		t.Fatalf("compile digest %s, want %s", got, compileDigest)
	}
}

package graph

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"stratmatch/internal/rng"
)

// TestERWalkPinnedStream pins the Erdős–Rényi sampler to the bytes it drew
// before the walk became a cursor: the edge count, the sha256 of the
// "v,w;" edge list in walk order, and the next Uint64 left on the stream
// (so the walk consumes exactly as many draws as before). Other experiments
// share one stream across several graphs, so a walk that drew one value
// more or less would move their outputs.
func TestERWalkPinnedStream(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		seed  uint64
		edges int
		sum   string
		after uint64
	}{
		{5000, 0.01, 1, 125459, "c00fb0af3f8fc3daaef22a59a5af37763566dc82e1cc44bf706d0ee1896377af", 14096563852683591321},
		{2000, 0.002, 2, 3987, "b0e604225b1f07661c73f6484525370c279a2280fb35c08fe080df98f9aa45fa", 15100573494138145270},
		{300, 0.3, 3, 13372, "35efcff4033919199bba06ff4e6d53d98e2675d72c8be12b7c8820d02f51fd74", 17439334829218649739},
		{40, 0.9, 4, 710, "d632cb8d0cf101eb61f54935d61f8800beed7b2817d8ae46688cf252e34c24a1", 5943447111430729866},
		{1000, 1e-5, 5, 3, "b9a9c382b9e5301b97212db81ccb37aee1d58321f330ccc340ca9f62ffee4024", 6687631433204633593},
		{30, 1, 6, 435, "5c128648f48cfa92db3e0565743f2390fbd1bc493e0705aa8db756d1e3fca0d7", 14149230350423225221},
	} {
		// The walk itself.
		r := rng.New(c.seed)
		walk := newERWalk(c.n, c.p, r)
		h := sha256.New()
		m := 0
		for v, w, ok := walk.Next(); ok; v, w, ok = walk.Next() {
			fmt.Fprintf(h, "%d,%d;", v, w)
			m++
		}
		if _, _, ok := walk.Next(); ok {
			t.Errorf("G(%d, %v): walk restarted after its end", c.n, c.p)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); m != c.edges || got != c.sum {
			t.Errorf("G(%d, %v) seed %d: walk gave %d edges %s, want %d %s", c.n, c.p, c.seed, m, got, c.edges, c.sum)
		}
		if got := r.Uint64(); got != c.after {
			t.Errorf("G(%d, %v) seed %d: stream after the walk at %d, want %d", c.n, c.p, c.seed, got, c.after)
		}

		// The adjacency built from it.
		r = rng.New(c.seed)
		g := ErdosRenyi(c.n, c.p, r)
		h.Reset()
		m = 0
		for v := 0; v < c.n; v++ {
			for _, w := range g.Neighbors(v) {
				if w < v {
					fmt.Fprintf(h, "%d,%d;", v, w)
					m++
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); m != c.edges || got != c.sum {
			t.Errorf("ErdosRenyi(%d, %v) seed %d: %d edges %s, want %d %s", c.n, c.p, c.seed, m, got, c.edges, c.sum)
		}
		if got := r.Uint64(); got != c.after {
			t.Errorf("ErdosRenyi(%d, %v) seed %d: stream after the draw at %d, want %d", c.n, c.p, c.seed, got, c.after)
		}
	}
}

// TestERWalkNoDrawBranches: empty, single-peer, p <= 0, NaN and p >= 1
// walks draw nothing from the stream.
func TestERWalkNoDrawBranches(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		edges int
	}{{0, 0.5, 0}, {1, 0.5, 0}, {10, 0, 0}, {10, -1, 0}, {10, math.NaN(), 0}, {10, 1, 45}, {10, 7, 45}, {2, 1, 1}} {
		r := rng.New(3)
		walk := newERWalk(c.n, c.p, r)
		m := 0
		for _, _, ok := walk.Next(); ok; _, _, ok = walk.Next() {
			m++
		}
		if m != c.edges {
			t.Errorf("G(%d, %v): %d edges, want %d", c.n, c.p, m, c.edges)
		}
		if got, want := r.Uint64(), rng.New(3).Uint64(); got != want {
			t.Errorf("G(%d, %v): the walk drew from the stream", c.n, c.p)
		}
	}
}

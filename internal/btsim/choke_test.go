package btsim

import (
	"testing"

	"stratmatch/internal/rng"
)

func TestChokeSlotsBounded(t *testing.T) {
	// A leecher never holds more than TFTSlots unchoked neighbors plus one
	// optimistic; a seed never more than TFTSlots+OptimisticSlots.
	s, err := New(Options{
		Leechers: 40, Seeds: 2, Pieces: 64, PostFlashCrowd: true,
		TFTSlots: 3, OptimisticSlots: 1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 120; round++ {
		s.Step()
		for i := range s.peers {
			p := &s.peers[i]
			unchoked := 0
			base, end := s.edges(p.id)
			for e := base; e < end; e++ {
				if s.unchoked[e] {
					unchoked++
				}
			}
			limit := s.opt.TFTSlots
			if p.done {
				limit = s.opt.TFTSlots + s.opt.OptimisticSlots
			}
			if unchoked > limit {
				t.Fatalf("round %d: peer %d unchokes %d > %d", round, p.id, unchoked, limit)
			}
			if p.optimistic >= 0 && s.unchoked[p.optimistic] {
				t.Fatalf("round %d: peer %d optimistic slot overlaps a TFT slot", round, p.id)
			}
		}
	}
}

func TestOptimisticRotates(t *testing.T) {
	// Over many optimistic intervals a leecher's optimistic pick must
	// change (content-unlimited keeps everyone interested forever).
	s, err := New(Options{
		Leechers: 30, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 10, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &s.peers[0]
	seen := make(map[int32]bool)
	for round := 0; round < 600; round++ {
		s.Step()
		if p.optimistic >= 0 {
			seen[s.nbr[p.optimistic]] = true
		}
	}
	if len(seen) < 3 {
		t.Fatalf("optimistic unchoke visited only %d distinct neighbors", len(seen))
	}
}

func TestRarestFirstPicksRarest(t *testing.T) {
	// Construct a 3-peer scenario where the uploader has two pieces the
	// downloader lacks, with different neighborhood availability: the
	// rarer piece must be picked.
	s, err := New(Options{
		Leechers: 3, Pieces: 2, PieceKbit: 100,
		UploadKbps: []float64{100, 100, 100}, NeighborCount: 2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 0: empty. Peer 1: both pieces. Peer 2: piece 0 only.
	// Availability from 0's perspective: piece 0 → 2 holders, piece 1 → 1.
	give := func(p *peer, piece int) {
		p.have.set(piece)
		p.haveCount++
		base, end := s.edges(p.id)
		for e := base; e < end; e++ {
			q := &s.peers[s.nbr[e]]
			s.avail[int(s.slotOf[q.id])*s.opt.Pieces+piece]++
			if !q.have.has(piece) {
				s.want[s.rev[e]]++
			}
		}
	}
	give(&s.peers[1], 0)
	give(&s.peers[1], 1)
	give(&s.peers[2], 0)
	if got := s.pickPiece(&s.peers[0], &s.peers[1]); got != 1 {
		t.Fatalf("picked piece %d, want the rarer piece 1", got)
	}
	// From peer 2 (has only piece 0), peer 0 must accept piece 0.
	if got := s.pickPiece(&s.peers[0], &s.peers[2]); got != 0 {
		t.Fatalf("picked %d from a single-piece holder", got)
	}
}

// pickPieceOracle is pickPiece written as the plain per-piece scan: the
// lowest-numbered rarest piece u has and v lacks, among pieces none of v's
// connections is feeding if there are any, else among all of them.
func pickPieceOracle(s *Swarm, v, u *peer) int {
	inflight := make(map[int]bool)
	base, end := s.edges(v.id)
	for e := base; e < end; e++ {
		if piece := s.inflight[e]; piece >= 0 {
			inflight[int(piece)] = true
		}
	}
	avail := s.avail[int(s.slotOf[v.id])*s.opt.Pieces:]
	fresh, rarest := -1, -1
	for piece := 0; piece < s.opt.Pieces; piece++ {
		if v.have.has(piece) || !u.have.has(piece) {
			continue
		}
		if rarest < 0 || avail[piece] < avail[rarest] {
			rarest = piece
		}
		if !inflight[piece] && (fresh < 0 || avail[piece] < avail[fresh]) {
			fresh = piece
		}
	}
	if fresh >= 0 {
		return fresh
	}
	return rarest
}

// TestPickPieceMatchesOracle checks the word-at-a-time rarest-first scan
// against the per-piece oracle across bitset word boundaries (the catalog
// runs 32 pieces, one word), on random have sets of every density, heavily
// tied availability counts and random in-flight state.
func TestPickPieceMatchesOracle(t *testing.T) {
	r := rng.New(41)
	for _, pieces := range []int{1, 63, 64, 65, 130} {
		s, err := New(Options{Leechers: 6, Seeds: 1, Pieces: pieces, PieceKbit: 100,
			NeighborCount: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		randomHave := func(b bitset, density float64) {
			b.clear()
			for i := 0; i < pieces; i++ {
				if r.Bool(density) {
					b.set(i)
				}
			}
		}
		densities := []float64{0, 0.1, 0.5, 0.9, 1}
		for trial := 0; trial < 400; trial++ {
			v := &s.peers[r.Intn(len(s.peers))]
			u := &s.peers[r.Intn(len(s.peers))]
			if u == v {
				continue
			}
			randomHave(v.have, densities[r.Intn(len(densities))])
			randomHave(u.have, densities[r.Intn(len(densities))])
			base, end := s.edges(v.id)
			for e := base; e < end; e++ {
				s.inflight[e] = -1
				if r.Bool(0.6) {
					s.inflight[e] = int32(r.Intn(pieces))
				}
			}
			// The in-flight counts pickPiece reads are rebuilt from
			// inflight by the load's recount; the avail row is then
			// overwritten with heavily tied random counts.
			if err := s.recount(true); err != nil {
				t.Fatal(err)
			}
			abase := int(s.slotOf[v.id]) * pieces
			for i := 0; i < pieces; i++ {
				s.avail[abase+i] = int32(r.Intn(3))
			}
			if got, want := s.pickPiece(v, u), pickPieceOracle(s, v, u); got != want {
				t.Fatalf("pieces=%d trial %d: pickPiece %d, oracle %d", pieces, trial, got, want)
			}
		}
	}
}

func TestContentUnlimitedNeverDone(t *testing.T) {
	s, err := New(Options{
		Leechers: 15, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 5, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(300)
	for i := range s.peers {
		p := &s.peers[i]
		if p.done {
			t.Fatalf("peer %d finished in content-unlimited mode", p.id)
		}
		if p.totalDown == 0 {
			t.Fatalf("peer %d received nothing in 300 rounds", p.id)
		}
	}
	if s.AllDone() {
		t.Fatal("AllDone in content-unlimited mode")
	}
}

func TestRecvRateMeasuresWindow(t *testing.T) {
	// Two peers, unlimited content: after the first full choke interval,
	// the measured rate from the partner equals its capacity (single
	// active recipient gets the whole share).
	s, err := New(Options{
		Leechers: 2, Pieces: 1, ContentUnlimited: true,
		UploadKbps: []float64{300, 500}, NeighborCount: 1,
		ChokeIntervalRounds: 10, Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(25)
	// Each peer has exactly one edge: its block starts at its slot base.
	e0, _ := s.edges(0)
	if got := s.recvRate[e0]; got != 500 {
		t.Fatalf("peer 0 measures %v kbps from peer 1, want 500", got)
	}
	e1, _ := s.edges(1)
	if got := s.recvRate[e1]; got != 300 {
		t.Fatalf("peer 1 measures %v kbps from peer 0, want 300", got)
	}
}

func TestDepartedPeerNeverTransfers(t *testing.T) {
	s, err := New(Options{
		Leechers: 10, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 4, Seed: 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	up, down := s.peers[3].totalUp, s.peers[3].totalDown
	s.Depart(3)
	s.Run(100)
	if s.peers[3].totalUp != up || s.peers[3].totalDown != down {
		t.Fatal("departed peer kept moving data")
	}
}

// TestIncrementalInterestMatchesBitfields cross-checks the incremental
// want[e] counters against a from-scratch bitfield recount after a run with
// completions and a departure — the invariant the O(1) interest test relies
// on.
func TestIncrementalInterestMatchesBitfields(t *testing.T) {
	s, err := New(Options{
		Leechers: 25, Seeds: 2, Pieces: 48, PieceKbit: 512,
		PostFlashCrowd: true, Seed: 27,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		for i := range s.peers {
			p := &s.peers[i]
			if p.departed {
				continue
			}
			abase := int(s.slotOf[p.id]) * s.opt.Pieces
			recount := make([]int32, s.opt.Pieces)
			base, end := s.edges(i)
			for e := base; e < end; e++ {
				// Departure now unwires edges, so every remaining edge
				// points at a present neighbor.
				q := &s.peers[s.nbr[e]]
				if q.departed {
					t.Fatalf("%s: peer %d still wired to departed peer %d", stage, i, q.id)
				}
				if got, want := s.want[e], int32(p.have.countMissingIn(q.have)); got != want {
					t.Fatalf("%s: want[%d→%d] = %d, recount %d", stage, i, q.id, got, want)
				}
				for piece := 0; piece < s.opt.Pieces; piece++ {
					if q.have.has(piece) {
						recount[piece]++
					}
				}
			}
			for piece, want := range recount {
				if got := s.avail[abase+piece]; got != want {
					t.Fatalf("%s: avail[%d,%d] = %d, recount %d", stage, i, piece, got, want)
				}
			}
		}
	}
	s.Run(60)
	check("mid-run")
	s.Depart(4)
	s.Run(60)
	check("after departure")
}

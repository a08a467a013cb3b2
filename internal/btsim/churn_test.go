package btsim

import (
	"fmt"
	"math"
	"testing"

	"stratmatch/internal/rng"
)

// checkInvariants cross-checks the dynamic CSR engine's structural
// invariants from scratch: slot/roster consistency, reverse-edge
// involution, symmetric single edges between present peers only, and the
// incremental want/avail counters against full bitfield recounts.
func checkInvariants(t *testing.T, s *Swarm, stage string) {
	t.Helper()
	s.flushJoinRanks() // ranks are batch-assigned; the audit below reads them
	P := s.opt.Pieces

	// Roster ↔ slot ↔ tracker consistency.
	present := 0
	for i := range s.peers {
		p := &s.peers[i]
		sl := s.slotOf[i]
		if p.departed {
			if sl != -1 {
				t.Fatalf("%s: departed peer %d keeps slot %d", stage, p.id, sl)
			}
			if s.trk.pos[p.id] != -1 {
				t.Fatalf("%s: departed peer %d still registered", stage, p.id)
			}
			continue
		}
		present++
		if sl < 0 || int(sl) >= s.slotCap || s.slotPeer[sl] != int32(p.id) {
			t.Fatalf("%s: peer %d slot mapping broken (slot %d)", stage, p.id, sl)
		}
		if got := s.trk.present[s.trk.pos[p.id]]; got != int32(p.id) {
			t.Fatalf("%s: tracker position of peer %d points at %d", stage, p.id, got)
		}
	}
	if present != s.present || present != len(s.trk.present) {
		t.Fatalf("%s: present count %d, counter %d, tracker %d",
			stage, present, s.present, len(s.trk.present))
	}
	if len(s.freeSlots)+present != s.slotCap {
		t.Fatalf("%s: %d free slots + %d present != %d slots",
			stage, len(s.freeSlots), present, s.slotCap)
	}
	for _, sl := range s.freeSlots {
		if s.deg[sl] != 0 || s.slotPeer[sl] != -1 {
			t.Fatalf("%s: free slot %d has degree %d, occupant %d",
				stage, sl, s.deg[sl], s.slotPeer[sl])
		}
		for piece := 0; piece < P; piece++ {
			if s.avail[int(sl)*P+piece] != 0 || s.pieceProgress[int(sl)*P+piece] != 0 {
				t.Fatalf("%s: free slot %d has residual avail/progress at piece %d",
					stage, sl, piece)
			}
		}
	}

	// Present ranks form a permutation of 0..present-1.
	seen := make([]bool, present)
	for _, id := range s.trk.present {
		r := s.rank[id]
		if r < 0 || r >= present || seen[r] {
			t.Fatalf("%s: present ranks are not a permutation (peer %d rank %d)", stage, id, r)
		}
		seen[r] = true
	}

	// Edge structure and incremental counters.
	for _, id := range s.trk.present {
		p := &s.peers[id]
		if d := s.deg[s.slotOf[id]]; d > s.edgeCap {
			t.Fatalf("%s: peer %d degree %d over capacity %d",
				stage, p.id, d, s.edgeCap)
		}
		base, end := s.edges(p.id)
		recount := make([]int32, P)
		for e := base; e < end; e++ {
			q := &s.peers[s.nbr[e]]
			if q.departed {
				t.Fatalf("%s: peer %d wired to departed peer %d", stage, p.id, q.id)
			}
			if q.id == p.id {
				t.Fatalf("%s: peer %d has a self edge", stage, p.id)
			}
			for e2 := base; e2 < e; e2++ {
				if s.nbr[e2] == s.nbr[e] {
					t.Fatalf("%s: duplicate edge %d→%d", stage, p.id, q.id)
				}
			}
			er := s.rev[e]
			qb, qe := s.edges(q.id)
			if er < qb || er >= qe {
				t.Fatalf("%s: rev[%d→%d] outside the neighbor's live block", stage, p.id, q.id)
			}
			if s.nbr[er] != int32(p.id) || s.rev[er] != e {
				t.Fatalf("%s: rev involution broken on %d→%d", stage, p.id, q.id)
			}
			if got, want := s.want[e], int32(p.have.countMissingIn(q.have)); got != want {
				t.Fatalf("%s: want[%d→%d] = %d, recount %d", stage, p.id, q.id, got, want)
			}
			for piece := 0; piece < P; piece++ {
				if q.have.has(piece) {
					recount[piece]++
				}
			}
		}
		if p.optimistic >= 0 && (p.optimistic < base || p.optimistic >= end) {
			t.Fatalf("%s: peer %d optimistic edge %d outside its block", stage, p.id, p.optimistic)
		}
		abase := int(s.slotOf[p.id]) * P
		for piece := 0; piece < P; piece++ {
			if got := s.avail[abase+piece]; got != recount[piece] {
				t.Fatalf("%s: avail[peer %d, piece %d] = %d, recount %d",
					stage, p.id, piece, got, recount[piece])
			}
		}
	}
}

func checkConservation(t *testing.T, s *Swarm, stage string) {
	t.Helper()
	up, down := s.recountTotals()
	if math.Abs(up-down) > 1e-6*math.Max(1, up) {
		t.Fatalf("%s: conservation violated: uploaded %v, downloaded %v", stage, up, down)
	}
}

// TestInterleavedJoinDepartInvariants drives the engine through a random
// interleaving of joins, departures and stepping — including slot-array
// growth past MaxPeers — and recounts every incremental structure from
// scratch along the way.
func TestInterleavedJoinDepartInvariants(t *testing.T) {
	s, err := New(Options{
		Leechers: 12, Seeds: 2, Pieces: 24, PieceKbit: 256,
		NeighborCount: 6, MaxPeers: 16, // force grow() under the join load
		Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s, "initial")
	r := rng.New(99)
	for batch := 0; batch < 30; batch++ {
		for op := 0; op < 4; op++ {
			switch r.Intn(3) {
			case 0:
				s.Join(100+float64(r.Intn(900)), r.Bool(0.1))
			case 1:
				// Depart a random roster peer; departed picks are no-ops,
				// exercising idempotence. Keep at least two present.
				if s.present > 2 {
					s.Depart(r.Intn(len(s.peers)))
				}
			case 2:
				s.Run(3)
			}
		}
		s.ReannounceUnderConnected(1)
		checkInvariants(t, s, "interleaved batch")
		checkConservation(t, s, "interleaved batch")
	}
	if len(s.peers) <= 14 {
		t.Fatal("no joins executed")
	}
	if s.slotCap <= 16 {
		t.Error("join load never grew the slot arrays; raise the batch count")
	}
}

// TestJoinersDownload: a peer that joins an in-flight swarm actually
// receives neighbors, pieces, and eventually the whole file.
func TestJoinersDownload(t *testing.T) {
	s, err := New(Options{
		Leechers: 15, Seeds: 2, Pieces: 24, PieceKbit: 256,
		UploadKbps: uniformCaps(17, 800), NeighborCount: 6, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(40)
	id := s.Join(800, false)
	if s.deg[s.slotOf[id]] == 0 {
		t.Fatal("tracker handed the joiner no neighbors")
	}
	if !s.RunUntilDone(20000) {
		t.Fatalf("swarm stalled after join (%d/%d present done)", s.presentDone, s.present)
	}
	if !s.peers[id].done {
		t.Fatal("joiner never completed")
	}
	if s.peers[id].joinRound != 40 {
		t.Fatalf("joiner joinRound %d, want 40", s.peers[id].joinRound)
	}
	checkInvariants(t, s, "after completion")
}

// TestDepartureHealsViaReannounce: after a mass departure guts the overlay,
// under-connected survivors re-announce and the mean degree recovers to
// the tracker target.
func TestDepartureHealsViaReannounce(t *testing.T) {
	s, err := New(Options{
		Leechers: 60, Seeds: 2, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 10, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	r := rng.New(7)
	var scratch []int32
	if got := s.massDepart(0.5, false, r, &scratch); got != 30 {
		t.Fatalf("mass departure removed %d of 60 leechers, want 30", got)
	}
	checkInvariants(t, s, "after mass departure")
	var degSum int
	for _, id := range s.trk.present {
		degSum += int(s.deg[s.slotOf[id]])
	}
	before := float64(degSum) / float64(s.present)
	for i := 0; i < 20; i++ {
		s.Step()
		s.ReannounceUnderConnected(1)
	}
	degSum = 0
	for _, id := range s.trk.present {
		degSum += int(s.deg[s.slotOf[id]])
	}
	after := float64(degSum) / float64(s.present)
	if after < float64(s.opt.NeighborCount) {
		t.Fatalf("overlay did not heal: mean degree %.1f → %.1f, want ≥ %d",
			before, after, s.opt.NeighborCount)
	}
	checkInvariants(t, s, "after healing")
}

// TestSeedLingerLifecycle: a completed leecher is promoted to seed, lingers
// the configured time, then departs; initial seeds stay.
func TestSeedLingerLifecycle(t *testing.T) {
	s, err := New(Options{
		Leechers: 10, Seeds: 1, Pieces: 8, PieceKbit: 128,
		UploadKbps: uniformCaps(11, 1000), NeighborCount: 5, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := Departures{SeedLingerRounds: 25, InitialSeedsStay: true}
	r := rng.New(3)
	var scratch []int32
	for round := 0; round < 2000 && s.present > 1; round++ {
		s.Step()
		s.applyDepartures(dep, r, &scratch)
	}
	for i := range s.peers {
		p := &s.peers[i]
		if p.isSeed {
			if p.departed {
				t.Fatalf("initial seed %d departed despite InitialSeedsStay", p.id)
			}
			continue
		}
		if !p.done {
			t.Fatalf("leecher %d never finished", p.id)
		}
		if !p.departed {
			t.Fatalf("finished leecher %d never departed", p.id)
		}
		if got := p.departRound - p.doneRound; got != dep.SeedLingerRounds {
			t.Fatalf("leecher %d lingered %d rounds, want %d",
				p.id, got, dep.SeedLingerRounds)
		}
	}
	if s.present != 1 {
		t.Fatalf("%d peers left, want only the initial seed", s.present)
	}
	checkConservation(t, s, "after drain")
}

// TestStepAllocsUnderSteadyChurn pins the churn regression: once the slot
// pools and recycled bitfields are warm, stepping a swarm under continuous
// Poisson arrivals and lifecycle departures stays (amortized) allocation
// free — only the append-only roster occasionally doubles.
func TestStepAllocsUnderSteadyChurn(t *testing.T) {
	sc, err := NamedScenario("poisson", 45, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sc.Opt)
	if err != nil {
		t.Fatal(err)
	}
	churnR := rng.New(sc.Opt.Seed).Split()
	var scratch []int32
	step := func() {
		for k := sumArrivals(sc.spec.Arrivals, s.round, churnR); k > 0; k-- {
			s.Join(sc.capacity.Sample(churnR), false)
		}
		s.Step()
		s.applyDepartures(sc.spec.Departures, churnR, &scratch)
		s.ReannounceUnderConnected(10)
	}
	for i := 0; i < 500; i++ { // warm: roster capacity, bitset pool, scratch
		step()
	}
	if allocs := testing.AllocsPerRun(400, step); allocs > 1 {
		t.Fatalf("steady-churn stepping allocates %.2f objects per round, want ≤ 1 amortized", allocs)
	}
	checkInvariants(t, s, "after alloc run")
	checkConservation(t, s, "after alloc run")
}

// TestAbandonRankBias: capacity-correlated abandonment removes slow peers
// preferentially, and a zero bias consumes the random stream exactly like
// the unbiased rule (so old scenarios replay unchanged).
func TestAbandonRankBias(t *testing.T) {
	build := func() *Swarm {
		caps := make([]float64, 60)
		for i := range caps {
			caps[i] = 100 + 100*float64(i) // strictly increasing: id == 59-rank
		}
		s, err := New(Options{
			Leechers: 60, Pieces: 1, ContentUnlimited: true,
			UploadKbps: caps, NeighborCount: 8, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := build()
	r := rng.New(5)
	var scratch []int32
	biased := Departures{AbandonPerRound: 0.01, AbandonRankBias: 8}
	for round := 0; round < 150 && s.present > 10; round++ {
		s.Step()
		s.applyDepartures(biased, r, &scratch)
	}
	var goneCap, stayCap, gone, stay float64
	for i := range s.peers {
		if s.peers[i].departed {
			goneCap += s.peers[i].capacity
			gone++
		} else {
			stayCap += s.peers[i].capacity
			stay++
		}
	}
	if gone == 0 || stay == 0 {
		t.Fatalf("degenerate outcome: %v gone, %v stayed", gone, stay)
	}
	if goneCap/gone >= stayCap/stay {
		t.Fatalf("rank bias did not cull slow peers: departed mean %v kbps, stayed mean %v kbps",
			goneCap/gone, stayCap/stay)
	}

	// Zero bias must be byte-identical to the pre-bias rule: same
	// departures, same stream consumption.
	a, b := build(), build()
	ra, rb := rng.New(6), rng.New(6)
	var sa, sb []int32
	for round := 0; round < 80; round++ {
		a.Step()
		b.Step()
		a.applyDepartures(Departures{AbandonPerRound: 0.02}, ra, &sa)
		b.applyDepartures(Departures{AbandonPerRound: 0.02, AbandonRankBias: 0}, rb, &sb)
	}
	if a.totalDeparted != b.totalDeparted || ra.Uint64() != rb.Uint64() {
		t.Fatalf("zero bias diverged from the unbiased rule: %d vs %d departures",
			a.totalDeparted, b.totalDeparted)
	}
	for i := range a.peers {
		if a.peers[i].departed != b.peers[i].departed {
			t.Fatalf("peer %d departure state diverged under zero bias", i)
		}
	}
}

// TestArrivalProcesses pins the arrival processes' contracts: bursts and
// traces are exact, Poisson matches its mean, and combination sums.
func TestArrivalProcesses(t *testing.T) {
	r := rng.New(8)
	b := ArrivalSpec{Kind: "burst", Start: 5, Rounds: 7, Total: 23}
	total := 0
	for round := 0; round < 50; round++ {
		k := b.arrivals(round, r)
		if k > 0 && (round < 5 || round >= 12) {
			t.Fatalf("burst arrival outside its window at round %d", round)
		}
		total += k
	}
	if total != 23 {
		t.Fatalf("burst delivered %d arrivals, want 23", total)
	}

	tr := ArrivalSpec{Kind: "trace", Counts: []int{3, 0, 2}}
	if tr.arrivals(0, r) != 3 || tr.arrivals(1, r) != 0 || tr.arrivals(2, r) != 2 || tr.arrivals(3, r) != 0 {
		t.Fatal("trace replay broken")
	}

	p := ArrivalSpec{Kind: "poisson", Rate: 1.7}
	sum := 0
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		sum += p.arrivals(i, r)
	}
	mean := float64(sum) / rounds
	// 4σ band: σ/√n = √1.7/√20000 ≈ 0.0092.
	if math.Abs(mean-1.7) > 0.04 {
		t.Fatalf("Poisson mean %.3f, want ≈ 1.7", mean)
	}

	c := ArrivalSpec{Kind: "combined", Parts: []ArrivalSpec{
		{Kind: "burst", Start: 0, Rounds: 1, Total: 2},
		{Kind: "trace", Counts: []int{5}},
	}}
	if c.arrivals(0, r) != 7 {
		t.Fatal("combined arrivals do not sum")
	}

	// Large rates take the chunked path (e^−λ would underflow whole):
	// the mean must still be exact.
	big := ArrivalSpec{Kind: "poisson", Rate: 1000}
	bigSum := 0.0
	const bigRounds = 3000
	for i := 0; i < bigRounds; i++ {
		bigSum += float64(big.arrivals(i, r))
	}
	bigSigma := math.Sqrt(1000.0 / bigRounds)
	if bigMean := bigSum / bigRounds; math.Abs(bigMean-1000) > 5*bigSigma {
		t.Fatalf("Poisson(1000) mean %.2f, want 1000 ± %.2f", bigMean, 5*bigSigma)
	}
}

// TestScenarioDeterminism: a scenario replays byte-identically for a seed.
func TestScenarioDeterminism(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := NamedScenario(name, 46, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Series) != len(b.Series) {
			t.Fatalf("%s: series lengths diverged", name)
		}
		for i := range a.Series {
			// Compare formatted: SeriesPoint carries NaN sentinels, and
			// NaN != NaN would fail struct equality on identical samples.
			av, bv := fmt.Sprintf("%+v", a.Series[i]), fmt.Sprintf("%+v", b.Series[i])
			if av != bv {
				t.Fatalf("%s: sample %d diverged:\n%s\n%s", name, i, av, bv)
			}
		}
		if a.TotalJoined != b.TotalJoined || a.TotalDeparted != b.TotalDeparted {
			t.Fatalf("%s: membership flows diverged", name)
		}
	}
}

// TestNamedScenariosRun exercises the whole catalog end to end at reduced
// scale: population flows, conservation, and scenario-specific shape.
func TestNamedScenariosRun(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := NamedScenario(name, 47, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) < 10 {
				t.Fatalf("only %d samples", len(res.Series))
			}
			var up, down float64
			for _, pm := range res.Final.Peers {
				up += pm.TotalUp
				down += pm.TotalDown
			}
			if math.Abs(up-down) > 1e-6*math.Max(1, up) {
				t.Fatalf("conservation violated: %v vs %v", up, down)
			}
			if res.TotalJoined <= sc.Opt.Leechers+sc.Opt.Seeds {
				t.Fatal("scenario produced no arrivals")
			}
			last := res.Series[len(res.Series)-1]
			if last.Present < 1 {
				t.Fatal("swarm died out")
			}
			switch name {
			case "flashcrowd":
				peak := 0
				for _, pt := range res.Series {
					if pt.Present > peak {
						peak = pt.Present
					}
				}
				if peak < 3*(sc.Opt.Leechers+sc.Opt.Seeds) {
					t.Fatalf("flash crowd never formed: peak %d", peak)
				}
				if last.Completed*2 < res.TotalJoined-sc.Opt.Seeds {
					t.Fatalf("crowd did not drain: %d of %d completed",
						last.Completed, res.TotalJoined-sc.Opt.Seeds)
				}
			case "massdepart":
				if res.TotalDeparted < sc.Opt.Leechers/3 {
					t.Fatalf("mass departure missing: %d departed", res.TotalDeparted)
				}
				if last.MeanDegree < float64(sc.Opt.NeighborCount)*0.7 {
					t.Fatalf("overlay did not heal: final mean degree %.1f", last.MeanDegree)
				}
			}
		})
	}
}

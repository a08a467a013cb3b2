package btsim

import "fmt"

// CheckInvariants audits the swarm's structural invariants by full recount:
// roster/slot/tracker agreement, free-list integrity, the present-rank
// permutation, CSR edge symmetry (rev involution, no self or duplicate
// edges), the incrementally maintained want and avail counters against
// their bitfield definitions, and the membership, degree-sum and
// stale-edge counters. It understands the fault layer: a crashed peer may
// keep its slot and edge block until the failure-detection sweep, and
// present peers may hold stale edges to it.
//
// A violation is returned as a descriptive error; nil means every
// invariant holds. The audit rescans the whole swarm and allocates
// scratch, so it is a debugging tool — scenarios run it per round only
// when FaultsSpec.Watchdog is set.
func (s *Swarm) CheckInvariants() error {
	// The rank-permutation audit below reads ranks.
	s.flushJoinRanks()
	// Crashed-but-unswept ids: allowed to hold slots while departed.
	pending := make(map[int32]bool)
	if s.flt != nil {
		for _, id := range s.flt.crashq[s.flt.crashHead:] {
			pending[id] = true
		}
	}

	// Roster ↔ slot ↔ tracker agreement, plus counter recounts.
	present, presentDone, completed, departed := 0, 0, 0, 0
	occupied := 0
	for i := range s.peers {
		p := &s.peers[i]
		sl := s.slotOf[i]
		if !p.isSeed && p.done {
			completed++
		}
		if p.departed {
			departed++
			if s.trk.pos[p.id] != -1 {
				return fmt.Errorf("btsim: invariant: departed peer %d still registered with the tracker", p.id)
			}
			if sl >= 0 && !pending[int32(p.id)] {
				return fmt.Errorf("btsim: invariant: departed peer %d holds slot %d but is not awaiting the crash sweep", p.id, sl)
			}
			if sl < 0 && pending[int32(p.id)] {
				return fmt.Errorf("btsim: invariant: crash-queue peer %d has no slot", p.id)
			}
		} else {
			present++
			if p.done {
				presentDone++
			}
			if sl < 0 {
				return fmt.Errorf("btsim: invariant: present peer %d has no slot", p.id)
			}
			pos := s.trk.pos[p.id]
			if pos < 0 || int(pos) >= len(s.trk.present) || s.trk.present[pos] != int32(p.id) {
				return fmt.Errorf("btsim: invariant: present peer %d not in the tracker registry", p.id)
			}
		}
		if sl >= 0 {
			occupied++
			if sl >= int32(s.slotCap) || s.slotPeer[sl] != int32(p.id) {
				return fmt.Errorf("btsim: invariant: peer %d and slot %d disagree on occupancy", p.id, sl)
			}
		}
	}
	switch {
	case present != s.present:
		return fmt.Errorf("btsim: invariant: present counter %d, recount %d", s.present, present)
	case presentDone != s.presentDone:
		return fmt.Errorf("btsim: invariant: presentDone counter %d, recount %d", s.presentDone, presentDone)
	case completed != s.completedLeechers:
		return fmt.Errorf("btsim: invariant: completedLeechers counter %d, recount %d", s.completedLeechers, completed)
	case departed != s.totalDeparted:
		return fmt.Errorf("btsim: invariant: totalDeparted counter %d, recount %d", s.totalDeparted, departed)
	case len(s.trk.present) != present:
		return fmt.Errorf("btsim: invariant: tracker holds %d peers, %d present", len(s.trk.present), present)
	}

	// Free-list integrity: free slots are vacant and unique, and together
	// with the occupied slots account for the whole capacity.
	seenFree := make(map[int32]bool, len(s.freeSlots))
	for _, sl := range s.freeSlots {
		if seenFree[sl] {
			return fmt.Errorf("btsim: invariant: slot %d is on the free list twice", sl)
		}
		seenFree[sl] = true
		if s.slotPeer[sl] != -1 {
			return fmt.Errorf("btsim: invariant: free slot %d is occupied by peer %d", sl, s.slotPeer[sl])
		}
	}
	if occupied+len(s.freeSlots) != s.slotCap {
		return fmt.Errorf("btsim: invariant: %d occupied + %d free slots over capacity %d",
			occupied, len(s.freeSlots), s.slotCap)
	}

	// Present ranks form a permutation of 0..present-1.
	seenRank := make([]bool, present)
	for _, id := range s.trk.present {
		r := s.rank[id]
		if r < 0 || r >= present || seenRank[r] {
			return fmt.Errorf("btsim: invariant: present ranks are not a permutation (peer %d has rank %d)", id, r)
		}
		seenRank[r] = true
	}

	// Edge structure and the incremental counters it feeds.
	liveDeg := int64(0)
	stale := 0
	availRe := make([]int32, s.opt.Pieces)
	for sl := 0; sl < s.slotCap; sl++ {
		oid := s.slotPeer[sl]
		if oid < 0 {
			continue
		}
		o := &s.peers[oid]
		d := s.deg[sl]
		if d < 0 || d > s.edgeCap {
			return fmt.Errorf("btsim: invariant: slot %d degree %d out of range", sl, d)
		}
		if !o.departed {
			liveDeg += int64(d)
		}
		for i := range availRe {
			availRe[i] = 0
		}
		base := int32(sl) * s.edgeCap
		for e := base; e < base+d; e++ {
			t := s.nbr[e]
			if t < 0 || int(t) >= len(s.peers) {
				return fmt.Errorf("btsim: invariant: edge %d targets unknown peer %d", e, t)
			}
			q := &s.peers[t]
			if t == oid {
				return fmt.Errorf("btsim: invariant: peer %d has a self-edge", oid)
			}
			qsl := s.slotOf[t]
			if qsl < 0 {
				return fmt.Errorf("btsim: invariant: peer %d has an edge to slotless peer %d", oid, t)
			}
			er := s.rev[e]
			if er < qsl*s.edgeCap || er >= qsl*s.edgeCap+s.deg[qsl] ||
				s.nbr[er] != oid || s.rev[er] != e {
				return fmt.Errorf("btsim: invariant: rev involution broken on edge %d (peer %d → %d)", e, oid, t)
			}
			for e2 := base; e2 < e; e2++ {
				if s.nbr[e2] == t {
					return fmt.Errorf("btsim: invariant: peer %d has duplicate edges to %d", oid, t)
				}
			}
			if want := int32(o.have.countMissingIn(q.have)); s.want[e] != want {
				return fmt.Errorf("btsim: invariant: want[%d] = %d, recount %d (peer %d → %d)",
					e, s.want[e], want, oid, t)
			}
			for piece := 0; piece < s.opt.Pieces; piece++ {
				if q.have.has(piece) {
					availRe[piece]++
				}
			}
			if !o.departed && q.departed {
				stale++
			}
		}
		abase := sl * s.opt.Pieces
		for piece := 0; piece < s.opt.Pieces; piece++ {
			if s.avail[abase+piece] != availRe[piece] {
				return fmt.Errorf("btsim: invariant: avail[slot %d, piece %d] = %d, recount %d",
					sl, piece, s.avail[abase+piece], availRe[piece])
			}
		}
	}
	if liveDeg != s.liveDegSum {
		return fmt.Errorf("btsim: invariant: liveDegSum %d, recount %d", s.liveDegSum, liveDeg)
	}
	if s.flt != nil && stale != s.flt.staleEdges {
		return fmt.Errorf("btsim: invariant: staleEdges %d, recount %d", s.flt.staleEdges, stale)
	}
	if s.flt == nil && stale != 0 {
		return fmt.Errorf("btsim: invariant: %d stale edges without a fault layer", stale)
	}
	if err := s.checkLazyStepping(); err != nil {
		return err
	}
	return nil
}

// checkLazyStepping cross-checks the event-driven bookkeeping against an
// eager recomputation: a clear dirty bit is a claim ("nothing here changed")
// that must be provably true, while a spurious set bit is merely
// conservative and not audited. It runs as part of CheckInvariants, between
// rounds, when the cross-round transfer scratch must also be quiescent.
func (s *Swarm) checkLazyStepping() error {
	sh := &s.sh
	// The send/recv handoff scratch must be fully drained between rounds.
	for e, a := range sh.xfer {
		if a != 0 {
			return fmt.Errorf("btsim: invariant: xfer[%d] = %g left over between rounds", e, a)
		}
	}
	for sl := 0; sl < s.slotCap; sl++ {
		id := s.slotPeer[sl]
		if id < 0 {
			continue
		}
		p := &s.peers[id]
		base := int32(sl) * s.edgeCap
		end := base + s.deg[sl]
		// A clear windowNZ/ratesNZ bit claims the slot's whole window/rate
		// block is zero — the claim the exact choke skip relies on.
		if !bmGet(sh.windowNZ, sl) {
			for e := base; e < end; e++ {
				if s.recvWindow[e] != 0 {
					return fmt.Errorf("btsim: invariant: slot %d windowNZ clear but recvWindow[%d] = %g",
						sl, e, s.recvWindow[e])
				}
			}
		}
		if !bmGet(sh.ratesNZ, sl) {
			for e := base; e < end; e++ {
				if s.recvRate[e] != 0 {
					return fmt.Errorf("btsim: invariant: slot %d ratesNZ clear but recvRate[%d] = %g",
						sl, e, s.recvRate[e])
				}
			}
		}
		// A clean active-list cache must equal the eager recomputation.
		if s.opt.ContentUnlimited && !p.departed && p.capacity > 0 && !bmGet(sh.xferDirty, sl) {
			abase := sl * sh.activeStride
			na := 0
			for e := base; e < end; e++ {
				if !s.unchoked[e] && e != p.optimistic {
					continue
				}
				v := &s.peers[s.nbr[e]]
				if v.departed || v.isSeed {
					continue
				}
				if na >= int(sh.activeCnt[sl]) || sh.activeEdges[abase+na] != e {
					return fmt.Errorf("btsim: invariant: slot %d active cache diverges from eager scan at entry %d", sl, na)
				}
				na++
			}
			if na != int(sh.activeCnt[sl]) {
				return fmt.Errorf("btsim: invariant: slot %d active cache holds %d edges, eager scan %d",
					sl, sh.activeCnt[sl], na)
			}
		}
	}
	return nil
}

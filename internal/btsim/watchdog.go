package btsim

import (
	"fmt"
	"slices"
)

// CheckInvariants audits the swarm's structural invariants by full recount:
// roster/slot/tracker agreement, free-list integrity, the present-rank
// permutation, CSR edge structure (no self or duplicate edges, every edge
// reversed), and every incrementally maintained value a checkpoint does
// not save — the membership and degree counters, each peer's wants-data
// flag, each tracker position's saturation bit, each edge's rev and want,
// each slot's avail row, in-flight counts and choke due phases, and the
// stale-edge count — against recount, the definition a checkpoint load
// rebuilds them with — and every clean active-transfer cache against an
// eager scan (checkActiveCache). It understands the fault layer: a
// crashed peer may keep its slot and edge block until the
// failure-detection sweep, and present peers may hold stale edges to it.
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

	// Roster ↔ slot ↔ tracker agreement.
	occupied := 0
	for i := range s.peers {
		p := &s.peers[i]
		sl := s.slotOf[i]
		if p.departed {
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
	// The counters, the edge structure and the per-edge and per-slot values
	// it feeds.
	if err := s.recount(false); err != nil {
		return fmt.Errorf("btsim: invariant: %w", err)
	}
	if len(s.trk.present) != s.present {
		return fmt.Errorf("btsim: invariant: tracker holds %d peers, %d present", len(s.trk.present), s.present)
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
	seenRank := make([]bool, s.present)
	for _, id := range s.trk.present {
		r := s.rank[id]
		if r < 0 || r >= s.present || seenRank[r] {
			return fmt.Errorf("btsim: invariant: present ranks are not a permutation (peer %d has rank %d)", id, r)
		}
		seenRank[r] = true
	}
	return s.checkActiveCache()
}

// recount recomputes the values the engine maintains incrementally that
// are functions of the roster, the bitfields and the wiring: the
// membership and degree counters; each peer's wants-data flag
// (wantsDataOf); each tracker position's saturation bit (the peer's degree
// is at the cap); for each live edge its rev (the owner's
// edge within the target's block, unique because duplicate edges are
// rejected) and want (the pieces the target holds that the owner lacks);
// each occupied slot's avail row; each slot's in-flight counts (its live
// edges per inflight piece, all zero for a free slot) and due phases
// (duePhaseOf its occupant); and the stale-edge count (present owners'
// edges to crashed peers). It is their one definition. With fill
// set it stores them, which is how a checkpoint load rebuilds the values
// it does not save; otherwise it compares them with the maintained values,
// as CheckInvariants does.
//
// A load runs it on state no audit has checked yet, so it checks every
// index it follows: an edge it cannot count is an error, never a panic.
func (s *Swarm) recount(fill bool) error {
	var c counters
	if fill {
		s.wantsData = make([]bool, len(s.peers))
	} else if len(s.wantsData) != len(s.peers) {
		return fmt.Errorf("%d wants-data flags for %d peers", len(s.wantsData), len(s.peers))
	}
	for i := range s.peers {
		p := &s.peers[i]
		if w := s.wantsDataOf(p); fill {
			s.wantsData[i] = w
		} else if s.wantsData[i] != w {
			return fmt.Errorf("peer %d wants-data flag %t, recount %t", i, s.wantsData[i], w)
		}
		if !p.isSeed && p.done {
			c.completedLeechers++
		}
		if p.departed {
			c.totalDeparted++
			continue
		}
		c.present++
		if p.done {
			c.presentDone++
		}
		if sl := s.slotOf[i]; sl >= 0 {
			c.liveDegSum += int64(s.deg[sl])
		}
	}
	if fill {
		s.counters = c
	} else if c != s.counters {
		return fmt.Errorf("counters %+v, recount %+v", s.counters, c)
	}

	if fill {
		s.trk.sat = make([]uint64, bmWords(len(s.trk.present)))
	}
	for i, id := range s.trk.present {
		sl := s.slotOf[id]
		if sl < 0 {
			return fmt.Errorf("tracker entry %d: peer %d has no slot", i, id)
		}
		sat := s.deg[sl] == s.edgeCap
		if fill {
			s.trk.setSatAt(i, sat)
		} else if s.trk.SaturatedAt(i) != sat {
			return fmt.Errorf("tracker entry %d (peer %d): saturation bit %t, degree %d of cap %d",
				i, id, s.trk.SaturatedAt(i), s.deg[sl], s.edgeCap)
		}
	}

	stale := 0
	rev, want, avail := make([]int32, s.edgeCap), make([]int32, s.edgeCap), make([]int32, s.opt.Pieces)
	for sl := 0; sl < s.slotCap; sl++ {
		oid := s.slotPeer[sl]
		if oid < 0 {
			continue
		}
		o, base, d := &s.peers[oid], int32(sl)*s.edgeCap, s.deg[sl]
		switch {
		case s.slotOf[oid] != int32(sl):
			return fmt.Errorf("slot %d holds peer %d, which is in slot %d", sl, oid, s.slotOf[oid])
		case d < 0 || d > s.edgeCap:
			return fmt.Errorf("slot %d degree %d out of range", sl, d)
		}
		if fill {
			rev, want, avail = s.rev[base:], s.want[base:], s.availRow(sl)
		}
		clear(avail)
		for i := range d {
			e, t := base+i, s.nbr[base+i]
			switch {
			case t < 0 || int(t) >= len(s.peers):
				return fmt.Errorf("edge %d targets unknown peer %d", e, t)
			case t == oid:
				return fmt.Errorf("peer %d has a self-edge", oid)
			case s.slotOf[t] < 0:
				return fmt.Errorf("peer %d has an edge to slotless peer %d", oid, t)
			case slices.Contains(s.nbr[base:e], t):
				return fmt.Errorf("peer %d has duplicate edges to %d", oid, t)
			}
			if rev[i] = s.edgeTo(t, oid); rev[i] < 0 {
				return fmt.Errorf("edge %d (peer %d → %d) has no reverse edge", e, oid, t)
			}
			q := &s.peers[t]
			want[i] = int32(o.have.countMissingIn(q.have))
			q.have.addTo(avail, 1)
			if !o.departed && q.departed {
				stale++
			}
		}
		if fill {
			continue
		}
		for i := range d {
			if e := base + i; s.rev[e] != rev[i] || s.want[e] != want[i] {
				return fmt.Errorf("edge %d (peer %d → %d) has rev %d, want %d; recount %d, %d",
					e, oid, s.nbr[e], s.rev[e], s.want[e], rev[i], want[i])
			}
		}
		if !slices.Equal(s.availRow(sl), avail) {
			return fmt.Errorf("slot %d avail %v, recount %v", sl, s.availRow(sl), avail)
		}
	}
	switch {
	case s.flt == nil && stale != 0:
		return fmt.Errorf("%d stale edges without a fault layer", stale)
	case s.flt == nil:
	case fill:
		s.flt.staleEdges = stale
	case stale != s.flt.staleEdges:
		return fmt.Errorf("staleEdges %d, recount %d", s.flt.staleEdges, stale)
	}

	// The per-slot schedule and in-flight rows, free slots included: the
	// next occupant must find them clear.
	cnt := make([]int32, s.opt.Pieces)
	for sl := 0; sl < s.slotCap; sl++ {
		oid := s.slotPeer[sl]
		row := s.inflightCnt[sl*s.opt.Pieces:][:s.opt.Pieces]
		if d := s.duePhaseOf(oid); fill {
			s.due[sl], cnt = d, row
		} else if s.due[sl] != d {
			return fmt.Errorf("slot %d due phases %+v, recount %+v", sl, s.due[sl], d)
		}
		clear(cnt)
		if oid >= 0 {
			base := int32(sl) * s.edgeCap
			for _, piece := range s.inflight[base : base+s.deg[sl]] {
				if piece >= 0 {
					cnt[piece]++
				}
			}
		}
		if !fill && !slices.Equal(row, cnt) {
			return fmt.Errorf("slot %d in-flight counts %v, recount %v", sl, row, cnt)
		}
	}
	return nil
}

// checkActiveCache cross-checks the transfer state against an eager
// recomputation. A clean slot's active-transfer cache must equal the eager
// scan — the edges its occupant unchokes or holds as its optimistic pick,
// towards a present leecher in content-unlimited mode, and none unless the
// occupant can send — and its sending bit must say whether the cache is
// non-empty. A set xferDirty bit is merely conservative, and a stale
// slot's cache is not compared. Every slot whose occupant can send, stale
// or clean, must list at most activeStride edges (its TFT unchokes plus
// the optimistic one): that bound is what lets its next rebuild fit its
// cache entries, a check a checkpoint load relies on. Neither bitmap may
// set a bit at or past slotCap. It runs as part of CheckInvariants,
// between rounds, when the cross-round transfer scratch must also be
// quiescent.
func (s *Swarm) checkActiveCache() error {
	sh := &s.sh
	// The send/recv handoff scratch must be fully drained between rounds.
	for e, a := range sh.xfer {
		if a != 0 {
			return fmt.Errorf("btsim: invariant: xfer[%d] = %g left over between rounds", e, a)
		}
	}
	if tail := s.slotCap & 63; tail != 0 {
		w := s.slotCap >> 6
		if (sh.xferDirty[w]|sh.sending[w])>>tail != 0 {
			return fmt.Errorf("btsim: invariant: a transfer bitmap marks a slot at or past capacity %d", s.slotCap)
		}
	}
	for sl := 0; sl < s.slotCap; sl++ {
		dirty := bmGet(sh.xferDirty, sl)
		var u *peer
		if id := s.slotPeer[sl]; id >= 0 && canSend(&s.peers[id]) {
			u = &s.peers[id]
		}
		if dirty && u == nil {
			continue
		}
		abase := sl * sh.activeStride
		na := 0
		if u != nil {
			base := int32(sl) * s.edgeCap
			for e := base; e < base+s.deg[sl]; e++ {
				if !s.unchoked[e] && e != u.optimistic {
					continue
				}
				if v := &s.peers[s.nbr[e]]; s.opt.ContentUnlimited && (v.departed || v.isSeed) {
					continue
				}
				if na == sh.activeStride {
					return fmt.Errorf("btsim: invariant: slot %d has more than %d active edges", sl, na)
				}
				if !dirty && (na >= int(sh.activeCnt[sl]) || sh.activeEdges[abase+na] != e) {
					return fmt.Errorf("btsim: invariant: slot %d active cache diverges from eager scan at entry %d", sl, na)
				}
				na++
			}
		}
		switch {
		case dirty:
		case na != int(sh.activeCnt[sl]):
			return fmt.Errorf("btsim: invariant: slot %d active cache holds %d edges, eager scan %d",
				sl, sh.activeCnt[sl], na)
		case bmGet(sh.sending, sl) != (na > 0):
			return fmt.Errorf("btsim: invariant: slot %d sending bit %t with %d cached edges",
				sl, bmGet(sh.sending, sl), na)
		}
	}
	return nil
}

package btsim

import (
	"math/bits"

	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// Step advances the simulation by one round (one second): choke decisions on
// their (per-peer staggered) schedule, then one round of data transfer.
// Staggering matters: real BitTorrent clients run independent 10-second
// choke timers; synchronizing them makes Tit-for-Tat pairs oscillate instead
// of locking in.
//
// Both halves run as deterministic bulk-synchronous passes over the slot
// shards (see shard.go): the choke pass shards in every mode, and in
// content-unlimited mode the transfer splits into a send pass and a receive
// pass with the cross-shard flow buffered in between. Piece-mode transfer
// stays serial — mid-round piece completions are an inherently sequential
// dependency — and visits only the slots with a non-empty or stale
// active-transfer cache. The result is byte-identical at any
// SetStepWorkers setting, and steady-state stepping is allocation-free at
// any worker count.
func (s *Swarm) Step() {
	s.flushJoinRanks()
	sp := s.tel.StartPhase(telemetry.PhaseChoke)
	s.runShards(phChoke)
	s.tel.EndPhase(telemetry.PhaseChoke, sp)
	sp = s.tel.StartPhase(telemetry.PhaseTransfer)
	if s.opt.ContentUnlimited {
		s.runShards(phSend)
		s.runShards(phRecv)
	} else {
		s.transfer()
	}
	s.tel.EndPhase(telemetry.PhaseTransfer, sp)
	s.tel.Inc(telemetry.CtrRounds)
	s.round++
}

// Run advances the simulation by the given number of rounds.
func (s *Swarm) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		s.Step()
	}
}

// RunUntilDone steps until every leecher holds all pieces or maxRounds
// elapse; it reports whether the swarm finished.
func (s *Swarm) RunUntilDone(maxRounds int) bool {
	for i := 0; i < maxRounds; i++ {
		if s.AllDone() {
			return true
		}
		s.Step()
	}
	return s.AllDone()
}

// AllDone reports whether every present leecher has completed the file.
func (s *Swarm) AllDone() bool {
	return s.present == s.presentDone
}

// Round returns the current round number.
func (s *Swarm) Round() int { return s.round }

// Depart removes a peer from the swarm: every one of its connections is
// unwired and its slot and bitfield are recycled (releaseSlot), then it
// leaves the membership (leave). The roster entry survives with the peer's
// totals, completion state and final rank, so departed peers still appear
// in the metrics.
func (s *Swarm) Depart(id int) {
	if id < 0 || id >= len(s.peers) || s.peers[id].departed {
		return
	}
	p := &s.peers[id]
	s.releaseSlot(p)
	s.leave(p)
	s.tel.Inc(telemetry.CtrDeparts)
}

// Crash removes a peer abruptly (crash-stop): it leaves the tracker and the
// membership counters at once, but — unlike Depart — nobody is told, so its
// connections are NOT unwired. Neighbors keep stale edges to the dead peer
// (counted in the fault telemetry) until the failure-detection sweep times
// them out; the crashed peer keeps its CSR slot, edge block and bitfield
// until then. Crash requires an armed fault layer and is a no-op for
// departed or out-of-range ids.
func (s *Swarm) Crash(id int) {
	if s.flt == nil || id < 0 || id >= len(s.peers) || s.peers[id].departed {
		return
	}
	f := s.flt
	p := &s.peers[id]
	sl := s.slotOf[id]
	// Stale-edge accounting: every present neighbor's half towards p goes
	// stale; p's own halves towards already-crashed neighbors stop counting
	// (their owner is no longer present). Surviving neighbors' active
	// lists just lost a recipient, and p's own list must empty — mark them
	// all for a cache rebuild.
	s.markActiveStale(sl)
	base := sl * s.edgeCap
	for e := base; e < base+s.deg[sl]; e++ {
		q := &s.peers[s.nbr[e]]
		if q.departed {
			f.staleEdges--
		} else {
			f.staleEdges++
			s.markActiveStale(s.rev[e] / s.edgeCap)
		}
	}
	s.liveDegSum -= int64(s.deg[sl]) // p's own halves leave the present sum
	s.leave(p)
	f.totalCrashed++
	f.crashq = append(f.crashq, int32(id))
	s.tel.Inc(telemetry.CtrCrashes)
}

// leave ends p's membership, the step Depart and Crash share: p leaves the
// tracker and the present counters, and the present peers ranked below it
// shift up one while p keeps the rank it held.
func (s *Swarm) leave(p *peer) {
	s.flushJoinRanks() // the shift below needs settled ranks
	p.optimistic = -1
	p.departed = true
	p.departRound = s.round
	s.wantsData[p.id] = false
	if p.done {
		s.presentDone--
	}
	s.present--
	s.totalDeparted++
	s.trk.Remove(int32(p.id))
	s.shiftRanksAbove(s.rank[p.id])
}

// releaseSlot unwires every edge of p (both CSR halves, with incremental
// want/avail maintenance), clears its slot's progress, availability and
// in-flight rows and its due phases so the next occupant starts clean,
// marks its active-transfer cache stale, and recycles the slot and
// bitfield.
// Depart calls it on a present peer and sweepCrashed on a crashed one. An
// edge between a present and a crashed peer had one stale half, the
// present end's, and unwiring it retires that half; p's own halves leave
// liveDegSum only while p is present (a crasher's left it at the crash).
func (s *Swarm) releaseSlot(p *peer) {
	sl := s.slotOf[p.id]
	base := sl * s.edgeCap
	if s.deg[sl] == s.edgeCap {
		s.trk.SetSaturated(int32(p.id), false)
	}
	for s.deg[sl] > 0 {
		e := base + s.deg[sl] - 1 // unwire p's edges from the back
		q := &s.peers[s.nbr[e]]
		er := s.rev[e] // q's edge back to p
		if q.departed != p.departed {
			s.flt.staleEdges-- // only the fault layer crashes peers
		}
		s.availSub(er/s.edgeCap, p.have)
		s.removeEdgeHalf(q, er)
		s.deg[sl]--
		if !p.departed {
			s.liveDegSum--
		}
	}
	// A direct clear of the slot's own rows, cheaper than decrementing per
	// departing edge.
	pbase := int(sl) * s.opt.Pieces
	for i := pbase; i < pbase+s.opt.Pieces; i++ {
		s.pieceProgress[i] = 0
		s.avail[i] = 0
		s.inflightCnt[i] = 0
	}
	s.slotOf[p.id] = -1
	s.slotPeer[sl] = -1
	s.due[sl] = freeDue
	s.markActiveStale(sl)
	s.freeSlots = append(s.freeSlots, sl)
	s.havePool = append(s.havePool, p.have)
	p.have = bitset{}
}

// sweepCrashed is the failure-detection pass: once a crashed peer has been
// silent for the neighbor timeout, every surviving neighbor notices the
// dead connection at once (all their timers started at the crash) and
// drops it. This is the deferred half of Depart (releaseSlot). The crash
// queue is in crash order, so the scan stops at the first entry still
// within the timeout.
func (s *Swarm) sweepCrashed() {
	f := s.flt
	for f.crashHead < len(f.crashq) {
		p := &s.peers[f.crashq[f.crashHead]]
		if s.round-p.departRound < f.timeout {
			break
		}
		f.crashHead++
		s.releaseSlot(p)
	}
	switch {
	case f.crashHead == len(f.crashq):
		f.crashq = f.crashq[:0]
		f.crashHead = 0
	case f.crashHead > 64 && 2*f.crashHead > len(f.crashq):
		// Compact the swept prefix away so a long crash window cannot grow
		// the queue without bound.
		n := copy(f.crashq, f.crashq[f.crashHead:])
		f.crashq = f.crashq[:n]
		f.crashHead = 0
	}
}

// wantsAlong reports whether peer v wants data along edge e, v's edge to a
// present uploader: v is present and still downloads (wantsData) and, in
// piece mode, the uploader has a piece v lacks (in content-unlimited mode
// every leecher always wants data from everybody). The missing-piece count
// is maintained incrementally in want[e], so this is O(1) instead of a
// bitfield scan, and it reads no roster entry.
func (s *Swarm) wantsAlong(v, e int32) bool {
	return s.wantsData[v] && (s.opt.ContentUnlimited || s.want[e] > 0)
}

// wantsDataOf is the predicate wantsData caches: p is present and still
// downloads. A seed never does. Otherwise piece mode asks whether p lacks a
// piece, while in content-unlimited mode every leecher wants data — even a
// post-flash-crowd leecher that started with every piece, which is done
// but not a seed.
func (s *Swarm) wantsDataOf(p *peer) bool {
	if p.departed {
		return false
	}
	if s.opt.ContentUnlimited {
		return !p.isSeed
	}
	return !p.done
}

// rechokePeer recomputes p's rates from its elapsed window and reassigns its
// TFT slots. It runs under the choke shard pass: sl is p's slot, rr the
// shard's RNG sub-stream and sc the calling worker's candidate scratch.
func (s *Swarm) rechokePeer(p *peer, sl int, rr *rng.RNG, sc *chokeScratch) {
	s.tel.Inc(telemetry.CtrRechokes)
	interval := float64(s.opt.ChokeIntervalRounds)
	base := int32(sl) * s.edgeCap
	end := base + s.deg[sl]
	for e := base; e < end; e++ {
		s.recvRate[e] = s.recvWindow[e] / interval
		s.recvWindow[e] = 0
	}
	if p.done {
		s.rechokeSeed(p, sl, rr, sc)
	} else {
		s.rechokeLeecher(p, sl, rr, sc)
	}
	bmSet(s.sh.xferDirty, sl)
}

// rechokeLeecher implements Tit-for-Tat: unchoke the TFTSlots neighbors that
// delivered the most data in the last interval and are interested in us.
func (s *Swarm) rechokeLeecher(p *peer, sl int, rr *rng.RNG, sc *chokeScratch) {
	nc := 0
	base := int32(sl) * s.edgeCap
	end := base + s.deg[sl]
	for e := base; e < end; e++ {
		s.unchoked[e] = false
		if !s.wantsAlong(s.nbr[e], s.rev[e]) {
			continue
		}
		sc.candE[nc] = e
		sc.candRate[nc] = s.recvRate[e]
		nc++
	}
	// Partial selection sort of the top TFTSlots by (rate desc, id asc).
	slots := min(s.opt.TFTSlots, nc)
	for pos := 0; pos < slots; pos++ {
		best := pos
		for i := pos + 1; i < nc; i++ {
			if sc.candRate[i] > sc.candRate[best] ||
				(sc.candRate[i] == sc.candRate[best] &&
					s.nbr[sc.candE[i]] < s.nbr[sc.candE[best]]) {
				best = i
			}
		}
		sc.candE[pos], sc.candE[best] = sc.candE[best], sc.candE[pos]
		sc.candRate[pos], sc.candRate[best] = sc.candRate[best], sc.candRate[pos]
		s.unchoked[sc.candE[pos]] = true
		// Stratification accounting: record the TFT partner's global rank,
		// but only for rate-driven choices after the warmup — zero-rate
		// picks are id-order artifacts, and early intervals measure mixing
		// noise rather than Tit-for-Tat preferences.
		if sc.candRate[pos] > 0 && s.round >= s.opt.MetricsWarmupRounds {
			p.tftPartnerRankSum += float64(s.rank[s.nbr[sc.candE[pos]]])
			p.tftPartnerCount++
		}
	}
	// If the optimistic pick just earned a TFT slot, the optimistic slot
	// moves to a fresh choked neighbor (BitTorrent rotates it early).
	if p.optimistic >= 0 && s.unchoked[p.optimistic] {
		s.rotateOptimisticPeer(p, rr, sc)
	}
}

// rechokeSeed gives seeds (and finished leechers) a fresh random set of
// interested neighbors each interval — the rotation keeps seed capacity
// spread over the swarm instead of captured by one peer.
func (s *Swarm) rechokeSeed(p *peer, sl int, rr *rng.RNG, sc *chokeScratch) {
	p.optimistic = -1 // seeds fold the optimistic slot into rotation
	nc := 0
	base := int32(sl) * s.edgeCap
	end := base + s.deg[sl]
	for e := base; e < end; e++ {
		s.unchoked[e] = false
		if s.wantsAlong(s.nbr[e], s.rev[e]) {
			sc.candE[nc] = e
			nc++
		}
	}
	slots := s.opt.TFTSlots + 1
	for i := 0; i < slots && nc > 0; i++ {
		pick := rr.Intn(nc)
		s.unchoked[sc.candE[pick]] = true
		sc.candE[pick] = sc.candE[nc-1]
		nc--
	}
}

// rotateOptimisticPeer re-draws p's optimistic unchoke uniformly among
// interested, currently choked neighbors, from the owning shard's
// sub-stream.
func (s *Swarm) rotateOptimisticPeer(p *peer, rr *rng.RNG, sc *chokeScratch) {
	s.tel.Inc(telemetry.CtrOptimistics)
	p.optimistic = -1
	nc := 0
	base, end := s.edges(p.id)
	for e := base; e < end; e++ {
		if !s.unchoked[e] && s.wantsAlong(s.nbr[e], s.rev[e]) {
			sc.candE[nc] = e
			nc++
		}
	}
	if nc > 0 {
		p.optimistic = sc.candE[rr.Intn(nc)]
	}
}

// transfer moves one round of data in piece mode: every peer splits its
// capacity equally among its active recipients (unchoked or optimistic,
// still interested). Each connection streams into one piece at a time;
// several connections may feed the same piece concurrently (BitTorrent
// downloads pieces in blocks from many peers in parallel), all adding to
// the downloader's shared per-piece progress. A connection transfers only
// what a piece still needs and spills leftover capacity into the next
// piece, so no bandwidth is burned on completed data.
//
// This pass is deliberately serial: a completion mid-round changes
// interest and rarity for uploaders later in slot order. Content-unlimited
// transfer — where no such dependency exists — runs as the sharded
// send/receive passes in shard.go instead.
//
// It is event-driven (see shard.go): it visits, in ascending slot order,
// only the slots whose active-transfer cache is non-empty (sending) or
// stale (xferDirty), rebuilding a stale one first. The cache lists every
// unchoked and optimistic edge; whether the recipient still wants data
// along it is asked at the uploader's turn, because earlier uploaders'
// completions change interest mid-round. That yields the same list, in
// the same order, as an eager scan of the uploader's edges.
func (s *Swarm) transfer() {
	sh := &s.sh
	for w, word := range sh.sending {
		for m := word | sh.xferDirty[w]; m != 0; m &= m - 1 {
			s.transferFrom(w<<6 | bits.TrailingZeros64(m))
		}
	}
}

// transferFrom is transfer's turn for the uploader in slot sl.
func (s *Swarm) transferFrom(sl int) {
	P := s.opt.Pieces
	sh := &s.sh
	if bmGet(sh.xferDirty, sl) {
		s.rebuildActive(sl)
		bmClear(sh.xferDirty, sl)
	}
	abase := sl * sh.activeStride
	na := 0
	for _, e := range sh.activeEdges[abase : abase+int(sh.activeCnt[sl])] {
		if s.wantsAlong(s.nbr[e], s.rev[e]) {
			s.active[na] = e
			na++
		}
	}
	if na == 0 {
		return
	}
	u := &s.peers[s.slotPeer[sl]] // a non-empty cache has a sending occupant
	share := u.capacity / float64(na)
	for a := 0; a < na; a++ {
		e := s.active[a]
		v := &s.peers[s.nbr[e]]
		ev := s.rev[e] // v's edge back to u: no neighbor-list search
		vsl := int(ev / s.edgeCap)
		remaining := share
		for remaining > 1e-9 && !v.done {
			piece := int(s.inflight[ev])
			if piece < 0 || v.have.has(piece) || !u.have.has(piece) {
				if piece >= 0 {
					s.inflightCnt[vsl*P+piece]--
				}
				piece = s.pickPiece(v, u)
				s.inflight[ev] = int32(piece)
				if piece < 0 {
					break // u has nothing v needs
				}
				s.inflightCnt[vsl*P+piece]++
			}
			idx := vsl*P + piece
			need := s.opt.PieceKbit - s.pieceProgress[idx]
			amt := remaining
			if need < amt {
				amt = need
			}
			s.pieceProgress[idx] += amt
			s.recvWindow[ev] += amt
			u.totalUp += amt
			v.totalDown += amt
			remaining -= amt
			if s.pieceProgress[idx] >= s.opt.PieceKbit {
				v.have.set(piece)
				s.completePiece(v, piece)
			}
		}
	}
}

// pickPiece chooses the piece v will stream from u: rarest first among
// pieces u has and v lacks, preferring pieces no other connection is
// currently feeding (to spread sources across pieces); when only in-flight
// pieces remain, it joins the rarest of those — progress is shared, so this
// accelerates completion instead of duplicating work. Whether a piece is
// in flight is read from v's slot's in-flight counts (inflightCnt), not
// from a walk over v's edges.
func (s *Swarm) pickPiece(v, u *peer) int {
	abase := int(s.slotOf[v.id]) * s.opt.Pieces
	avail := s.avail[abase : abase+s.opt.Pieces]
	inflight := s.inflightCnt[abase : abase+s.opt.Pieces]
	bestFresh, bestFreshAvail := -1, int32(1<<30)
	bestAny, bestAnyAvail := -1, int32(1<<30)
	// Visit the pieces u has and v lacks a bitset word at a time, in
	// ascending order (bits past the piece count are never set), so the
	// strict < keeps the lowest-numbered piece among equally rare ones.
	for i, uw := range u.have.words {
		for m := uw &^ v.have.words[i]; m != 0; m &= m - 1 {
			piece := i<<6 | bits.TrailingZeros64(m)
			a := avail[piece]
			if a < bestAnyAvail {
				bestAny, bestAnyAvail = piece, a
			}
			if inflight[piece] == 0 && a < bestFreshAvail {
				bestFresh, bestFreshAvail = piece, a
			}
		}
	}
	if bestFresh >= 0 {
		return bestFresh
	}
	return bestAny
}

// completePiece finalizes v's acquisition of piece: incremental interest and
// availability bookkeeping, in-flight cleanup (edges and counts), and
// completion (seed promotion) detection.
func (s *Swarm) completePiece(v *peer, piece int) {
	v.haveCount++
	P := s.opt.Pieces
	row := s.inflightCnt[int(s.slotOf[v.id])*P:][:P]
	base, end := s.edges(v.id)
	for e := base; e < end; e++ {
		if s.inflight[e] == int32(piece) {
			s.inflight[e] = -1
		}
		q := &s.peers[s.nbr[e]]
		qsl := s.rev[e] / s.edgeCap
		s.avail[int(qsl)*P+piece]++
		if q.have.has(piece) {
			// v no longer misses this piece from q.
			s.want[e]--
		} else {
			// q now misses this piece from v.
			s.want[s.rev[e]]++
		}
	}
	row[piece] = 0 // the loop idled every edge that fed it
	s.tel.Inc(telemetry.CtrPieces)
	if v.haveCount == s.opt.Pieces {
		v.done = true
		v.doneRound = s.round + 1
		s.wantsData[v.id] = s.wantsDataOf(v)
		s.presentDone++
		if !v.isSeed {
			s.completedLeechers++
		}
		for e := base; e < end; e++ {
			s.inflight[e] = -1
		}
		clear(row)
	}
}

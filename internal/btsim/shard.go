package btsim

// shard.go is the sharded, event-driven stepping layer.
//
// # Sharding
//
// The CSR slot space is partitioned into fixed ranges of slotsPerShard
// slots (a multiple of 64, so no two shards share a bitmap word). Each
// Step phase — choke, and in content-unlimited mode the transfer send and
// receive passes — runs as a deterministic bulk-synchronous pass over the
// shards: workers pull shard indices off an atomic cursor, but every
// per-slot effect depends only on the shard's own state, the shard's
// dedicated RNG sub-stream (rng.NewStream(Seed, shard) — a pure function
// of the shard index, independent of worker count and of when the shard
// was materialised) and global state frozen for the phase. The result is
// therefore byte-identical at any worker count, including workers == 1,
// which runs the same passes inline with no pool (as does a swarm of one
// shard at any worker count).
//
// Cross-shard writes are confined to one order-free channel, xfer: the
// send pass writes xfer[ev] with a plain store — exclusive, since exactly
// one uploader owns the reverse half of any edge — and the receive pass,
// after the barrier, walks its own shard's occupied slots and drains every
// entry, zero or not (see recvShard). Each float total is per peer and
// accumulated by the pass that owns the peer's slot, so no swarm-wide sum
// crosses shards.
//
// The shard cursor is the only atomic: no pass needs a flag or lock.
//
// Piece-mode transfer stays serial: a mid-round piece completion changes
// interest and rarity for uploaders later in slot order, an inherently
// sequential dependency (and the piece workloads are two orders of
// magnitude smaller than the content-unlimited flashcrowd this layer
// exists for). Choke decisions shard in both modes. The choke pass reads
// each slot's dense due phases (Swarm.due) and touches the roster only for
// the slots whose rechoke or optimistic rotation falls due this round.
//
// # Event-driven transfer (the active-transfer cache)
//
// Every on-schedule peer rechokes at each choke interval, as in the
// paper's Tit-for-Tat model. What is event-driven is transfer, in both
// modes: each uploader's active-transfer list (the edges it unchokes, or
// holds as its optimistic pick) is cached between choke changes. The
// xferDirty bitmap marks the slots whose cache may be stale — after a
// rechoke or optimistic rotation, the removal of a listed edge or a swap
// that moves one, a neighbor's crash, or the occupant's crash or
// departure (Crash, releaseSlot) — and transfer rebuilds only those. A
// new edge starts choked, so adding one changes no list, and a slot's
// next occupant finds its cache stale or already empty. A spurious mark
// only forces a rebuild that recomputes the same list.
// The content-unlimited cache keeps only edges towards a present leecher,
// which changes only with those events. Piece-mode interest changes
// mid-round, so the piece-mode cache keeps every unchoked and optimistic
// edge and transfer filters it at the uploader's turn; the sending bitmap
// marks the slots whose cache is non-empty, and piece-mode transfer
// visits only the slots in sending or xferDirty. Swarm.CheckInvariants
// cross-checks every clean cache, and its sending bit, against an eager
// scan.

import (
	"sync/atomic"

	"stratmatch/internal/par"
	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// defaultShardSlots is the production shard width: wide enough that a
// swarm of up to 2048 slots (every catalog scenario through scale 5) is one
// shard, which runShards steps inline without waking the worker pool,
// narrow enough that a 10^6-peer swarm has ~500 shards to load-balance
// across workers. Tests shrink it (setShardSlots, Scenario.shardSlots) to
// force churn across shard boundaries.
const defaultShardSlots = 2048

// Parallel phase discriminators for runShards.
const (
	phChoke = iota
	phSend
	phRecv
)

var shardPhaseTel = [3]telemetry.PhaseID{
	phChoke: telemetry.PhaseChokeShard,
	phSend:  telemetry.PhaseSendShard,
	phRecv:  telemetry.PhaseRecvShard,
}

// chokeScratch is one worker's private candidate buffers for the choke
// pass (sized to the per-slot edge capacity).
type chokeScratch struct {
	candE    []int32
	candRate []float64
}

// shardState is the Swarm's sharded/event-driven stepping state.
type shardState struct {
	slotsPerShard int
	streams       []*rng.RNG // per-shard choke RNG sub-streams

	workers  int
	pool     *par.Pool
	workerFn func(w int)
	phase    int
	next     atomic.Int32
	scratch  []chokeScratch // per-worker; [0] doubles as the serial scratch

	// xferDirty marks the slots whose active-transfer cache may be stale;
	// sending marks the slots whose cache is non-empty.
	// activeEdges[sl*activeStride:…]/activeCnt[sl] cache slot sl's active
	// transfer list between choke changes.
	xferDirty    []uint64
	sending      []uint64
	activeCnt    []int32
	activeEdges  []int32
	activeStride int

	// xfer[e] is the kbit written to edge e's owner this round by the
	// e-reverse uploader (zero between rounds: the receive pass drains it);
	// content-unlimited mode only, nil in piece mode.
	xfer []float64
}

// duePhase is one slot's choke schedule: a peer rechokes in the rounds r
// with (r + id) mod ChokeIntervalRounds == 0 and rotates its optimistic
// unchoke when (r + id) mod OptimisticIntervalRounds == 0, so each phase
// is its occupant's id modulo that interval. A free slot holds freeDue,
// which no round's residue equals.
type duePhase struct{ choke, opt int32 }

var freeDue = duePhase{-1, -1}

// duePhaseOf is the schedule of a slot occupied by peer id (freeDue for
// id < 0).
func (s *Swarm) duePhaseOf(id int32) duePhase {
	if id < 0 {
		return freeDue
	}
	return duePhase{int32(int(id) % s.opt.ChokeIntervalRounds), int32(int(id) % s.opt.OptimisticIntervalRounds)}
}

// Slot-bitmap helpers. All Step-phase writers touch only words of their
// own shard (shard bounds are 64-aligned), so these need no atomics.
func bmWords(n int) int             { return (n + 63) >> 6 }
func bmGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }
func bmSet(bm []uint64, i int)      { bm[i>>6] |= 1 << uint(i&63) }
func bmClear(bm []uint64, i int)    { bm[i>>6] &^= 1 << uint(i&63) }

// numShards returns the shard count for the current slot capacity.
func (s *Swarm) numShards() int {
	return (s.slotCap + s.sh.slotsPerShard - 1) / s.sh.slotsPerShard
}

// shardBounds returns shard k's slot range [lo, hi).
func (s *Swarm) shardBounds(k int) (lo, hi int) {
	lo = k * s.sh.slotsPerShard
	hi = lo + s.sh.slotsPerShard
	if hi > s.slotCap {
		hi = s.slotCap
	}
	return lo, hi
}

// initShards sets up the shard layer at construction time (after the slot
// arrays exist, before any wiring: the addEdge marks from the initial
// announces land in live bitmaps).
func (s *Swarm) initShards() {
	sh := &s.sh
	sh.slotsPerShard = defaultShardSlots
	sh.activeStride = s.opt.TFTSlots + 1 // TFT unchokes plus the optimistic one
	sh.workers = 1
	sh.scratch = make([]chokeScratch, 1)
	s.initChokeScratch(&sh.scratch[0])
	s.resizeShards()
}

func (s *Swarm) initChokeScratch(sc *chokeScratch) {
	sc.candE = make([]int32, s.edgeCap)
	sc.candRate = make([]float64, s.edgeCap)
}

// resizeShards (re)sizes the slot-indexed shard state for s.slotCap,
// preserving existing content, and materialises streams for any new
// shards. Stream k is a pure function of (Seed, k), so growth never
// perturbs existing shards.
func (s *Swarm) resizeShards() {
	sh := &s.sh
	n := s.numShards()
	for k := len(sh.streams); k < n; k++ {
		sh.streams = append(sh.streams, rng.NewStream(s.opt.Seed, uint64(k)))
	}
	w := bmWords(s.slotCap)
	sh.xferDirty = grown(sh.xferDirty, w)
	sh.sending = grown(sh.sending, w)
	sh.activeCnt = grown(sh.activeCnt, s.slotCap)
	sh.activeEdges = grown(sh.activeEdges, s.slotCap*sh.activeStride)
	if s.opt.ContentUnlimited {
		sh.xfer = grown(sh.xfer, s.slotCap*int(s.edgeCap))
	}
	s.tel.SetGauge(telemetry.GaugeShards, int64(n))
}

// setShardSlots overrides the shard width (tests only: shard-boundary
// churn coverage needs boundaries inside small populations). Must be
// called before any Step; the per-shard streams are re-derived, so two
// swarms agree byte-for-byte only when their widths agree.
func (s *Swarm) setShardSlots(n int) {
	if n < 64 || n%64 != 0 {
		panic("btsim: shard width must be a positive multiple of 64")
	}
	s.sh.slotsPerShard = n
	s.sh.streams = s.sh.streams[:0]
	s.resizeShards()
}

// SetStepWorkers sets how many goroutines Step's sharded phases use;
// n <= 1 steps inline on the calling goroutine. The simulation trajectory
// is byte-identical at every setting — shards own their RNG sub-streams
// and all cross-shard effects merge in shard order — so the worker count
// is a runtime knob, not part of Options and not checkpointed: a run may
// checkpoint under one worker count and resume under another. Swarms
// stepped with n > 1 hold a worker pool; Close releases it.
func (s *Swarm) SetStepWorkers(n int) {
	sh := &s.sh
	if n < 1 {
		n = 1
	}
	if n != sh.workers {
		if sh.pool != nil {
			sh.pool.Close()
			sh.pool = nil
		}
		sh.workers = n
		for len(sh.scratch) < n {
			sh.scratch = append(sh.scratch, chokeScratch{})
			s.initChokeScratch(&sh.scratch[len(sh.scratch)-1])
		}
		if n > 1 {
			sh.pool = par.NewPool(n)
			sh.workerFn = s.shardWorker
		}
	}
	s.tel.SetGauge(telemetry.GaugeStepWorkers, int64(n))
}

// StepWorkers reports the current worker setting.
func (s *Swarm) StepWorkers() int { return s.sh.workers }

// Close releases the swarm's worker pool; a no-op for serial swarms and
// safe to call more than once.
func (s *Swarm) Close() {
	if s.sh.pool != nil {
		s.sh.pool.Close()
		s.sh.pool = nil
		s.sh.workers = 1
	}
}

// runShards executes one phase over every shard: inline in shard order
// when serial or when the swarm has a single shard (waking the pool would
// only hand that shard to one worker and leave the rest idle), via the
// persistent pool otherwise. Shard handout order is irrelevant to the
// result (each shard is self-contained for the phase), so the atomic
// cursor needs no further coordination.
func (s *Swarm) runShards(ph int) {
	n := s.numShards()
	if n == 1 || s.sh.pool == nil {
		for k := 0; k < n; k++ {
			s.runShard(k, ph, 0)
		}
		return
	}
	s.sh.phase = ph
	s.sh.next.Store(0)
	s.sh.pool.Run(s.sh.workerFn)
}

func (s *Swarm) shardWorker(w int) {
	n := int32(s.numShards())
	ph := s.sh.phase
	for {
		k := s.sh.next.Add(1) - 1
		if k >= n {
			return
		}
		s.runShard(int(k), ph, w)
	}
}

func (s *Swarm) runShard(k, ph, w int) {
	sp := s.tel.StartPhase(shardPhaseTel[ph])
	switch ph {
	case phChoke:
		s.chokeShard(k, w)
	case phSend:
		s.sendShard(k)
	case phRecv:
		s.recvShard(k)
	}
	s.tel.EndPhase(shardPhaseTel[ph], sp)
}

// chokeShard runs the choke schedule over one shard's slots, in slot
// order, drawing any randomness (seed rotation, optimistic picks) from the
// shard's own sub-stream. A slot is due when its phase equals the round's
// residue, (−round) mod interval; the roster is read only for due slots.
func (s *Swarm) chokeShard(k, w int) {
	lo, hi := s.shardBounds(k)
	rr := s.sh.streams[k]
	sc := &s.sh.scratch[w]
	ci := s.opt.ChokeIntervalRounds
	oi := s.opt.OptimisticIntervalRounds
	rc := (ci - s.round%ci) % ci
	ro := (oi - s.round%oi) % oi
	for i, d := range s.due[lo:hi] {
		choke, opt := int(d.choke) == rc, int(d.opt) == ro
		if !choke && !opt {
			continue
		}
		sl := lo + i
		p := &s.peers[s.slotPeer[sl]]
		if p.departed {
			continue // crash-stop: a dead peer takes no protocol actions
		}
		if choke {
			s.rechokePeer(p, sl, rr, sc)
		}
		if opt && !p.done {
			s.rotateOptimisticPeer(p, rr, sc)
			bmSet(s.sh.xferDirty, sl)
		}
	}
}

// rebuildActive recomputes slot sl's cached active-transfer list and its
// sending bit. The list holds the edges the occupant unchokes or holds as
// its optimistic pick, in edge order, and is empty unless the occupant
// can send (canSend). In content-unlimited mode it keeps only the edges
// towards a present leecher, read from the dense wantsData flags rather
// than the roster (there the flag is exactly "present and not a seed").
// The cache is a pure function of choke state, occupancy and, in
// content-unlimited mode, neighbor liveness, all frozen during the
// transfer phase, and every mutation of them marks xferDirty — so a clean
// cache equals the eager scan (cross-checked by CheckInvariants).
func (s *Swarm) rebuildActive(sl int) {
	s.tel.Inc(telemetry.CtrActiveRebuilds)
	na := 0
	if id := s.slotPeer[sl]; id >= 0 && canSend(&s.peers[id]) {
		u := &s.peers[id]
		base := int32(sl) * s.edgeCap
		end := base + s.deg[sl]
		abase := sl * s.sh.activeStride
		for e := base; e < end; e++ {
			if !s.unchoked[e] && e != u.optimistic {
				continue
			}
			if !s.opt.ContentUnlimited || s.wantsData[s.nbr[e]] {
				s.sh.activeEdges[abase+na] = e
				na++
			}
		}
	}
	s.sh.activeCnt[sl] = int32(na)
	if na > 0 {
		bmSet(s.sh.sending, sl)
	} else {
		bmClear(s.sh.sending, sl)
	}
}

// canSend reports whether slot occupant u uploads: crashed occupants hold
// their slot but move no data, and neither does a peer without capacity.
func canSend(u *peer) bool { return !u.departed && u.capacity > 0 }

// sendShard is the content-unlimited uploader pass over one shard: each
// present uploader splits its capacity over its cached active list,
// writing the per-edge amount into xfer (exclusive: one uploader per
// reverse edge, so a plain store suffices). Only the uploader's totalUp is
// accumulated here; recipient-side accumulation happens in recvShard so
// each float total has exactly one deterministic accumulation order.
func (s *Swarm) sendShard(k int) {
	lo, hi := s.shardBounds(k)
	sh := &s.sh
	for sl := lo; sl < hi; sl++ {
		id := s.slotPeer[sl]
		if id < 0 {
			continue
		}
		u := &s.peers[id]
		if !canSend(u) {
			continue
		}
		if bmGet(sh.xferDirty, sl) {
			s.rebuildActive(sl)
			bmClear(sh.xferDirty, sl)
		}
		na := int(sh.activeCnt[sl])
		if na == 0 {
			continue
		}
		share := u.capacity / float64(na)
		abase := sl * sh.activeStride
		for a := 0; a < na; a++ {
			ev := s.rev[sh.activeEdges[abase+a]] // recipient's edge back to u
			sh.xfer[ev] = share
			u.totalUp += share
		}
	}
}

// recvShard is the content-unlimited downloader pass over one shard: every
// occupied slot, in slot order, drains all its xfer entries into its
// receive windows and download total (in edge order — deterministic and
// worker-independent), leaving xfer all-zero for the next round.
//
// The drain has no branch on the amount: an edge nobody sent along holds
// +0, and adding it changes nothing. Every amount is a positive finite
// share (sendShard writes capacity/na for capacity > 0) or +0, and the
// window and total it lands in start at +0 and only ever sum such amounts,
// so each is ≥ +0; for any x ≥ +0, x + (+0) == x bit for bit (the one
// float it would change is −0, which no engine path produces). The result
// is therefore the same bits as skipping the zero entries, without a
// data-dependent branch per edge. The total is summed in a local in the
// same edge order and stored once.
func (s *Swarm) recvShard(k int) {
	lo, hi := s.shardBounds(k)
	xfer := s.sh.xfer
	for sl := lo; sl < hi; sl++ {
		id := s.slotPeer[sl]
		if id < 0 {
			continue
		}
		base := int32(sl) * s.edgeCap
		end := base + s.deg[sl]
		down := s.peers[id].totalDown
		for e := base; e < end; e++ {
			a := xfer[e]
			xfer[e] = 0
			s.recvWindow[e] += a
			down += a
		}
		s.peers[id].totalDown = down
	}
}

// markActiveStale flags a slot whose cached active list may be stale: a
// listed edge was removed or swapped into a new index, a neighbor crashed,
// or the slot's occupant crashed or left.
func (s *Swarm) markActiveStale(sl int32) {
	bmSet(s.sh.xferDirty, int(sl))
}

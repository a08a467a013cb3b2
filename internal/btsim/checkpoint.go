package btsim

// Durable checkpoint/restore for scenario runs. A checkpoint is the
// complete run state — the swarm's roster, CSR wiring, free lists,
// bitfields and counters; the tracker registry (in handout order); the
// fault controller's windows, backoff timers and crash queue; every RNG
// stream position; and the runner's own sampler bounds, round cursor and
// drained-edge flag — serialized with the internal/checkpoint codec. The
// bar is byte-identity: a run resumed from a checkpoint produces exactly
// the sample/event stream and final result the uninterrupted run would
// have produced from that round on.
//
// What is deliberately NOT saved is everything reconstructible without
// observable effect: scratch buffers (candidate/active lists, the
// pickPiece mark array — a fresh zero stamp is behaviorally identical),
// the recycled-bitset pool (bitsets are cleared on reuse), free slots'
// edge rows (rewritten before first read), the tracker's position index
// (rebuilt from the registry), and telemetry (runtime instrumentation,
// never simulation state).
//
// Loading trusts nothing: the codec layer rejects truncation, bit flips
// and version skew; the decoder bounds-checks every index and size before
// it allocates or writes; and the restored swarm must pass the full
// CheckInvariants audit before a single round runs. A corrupt file yields
// a descriptive error, never a panic and never silently-wrong state.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"stratmatch/internal/checkpoint"
	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// ErrInterrupted tags the error RunObserver returns when the scenario's
// Interrupt channel fires: the run is suspended (with a final checkpoint
// written when a checkpoint directory is configured), not failed.
var ErrInterrupted = errors.New("run interrupted")

// maxStateElems bounds the element count of any single decoded state
// array (edges: slotCap·edgeCap; piece grids: slotCap·pieces). Real
// workloads sit orders of magnitude below it — a million-peer swarm at
// the default degree cap is ~28M edge cells — while a hostile header
// claiming huge dimensions is rejected before the allocation it is
// angling for.
const maxStateElems = 1 << 26

// writeCheckpoint snapshots the run into CheckpointDir as the checkpoint
// that resumes from nextRound, atomically, then rotates old checkpoints
// away per CheckpointRetain.
func (run *scenarioRun) writeCheckpoint(nextRound int) error {
	sc := run.sc
	tel := sc.Telemetry
	span := tel.StartPhase(telemetry.PhaseCheckpointWrite)
	defer tel.EndPhase(telemetry.PhaseCheckpointWrite, span)
	payload, err := run.encode(nextRound)
	if err != nil {
		return fmt.Errorf("scenario %s: checkpoint: %w", sc.Name, err)
	}
	if err := os.MkdirAll(sc.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("scenario %s: checkpoint: %w", sc.Name, err)
	}
	path := filepath.Join(sc.CheckpointDir, checkpoint.FileName(nextRound))
	n, err := checkpoint.WriteFile(path, payload)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	tel.Inc(telemetry.CtrCheckpointsWritten)
	tel.Add(telemetry.CtrCheckpointBytes, n)
	retain := sc.CheckpointRetain
	if retain == 0 {
		retain = 3
	}
	if retain > 0 {
		if err := checkpoint.Rotate(sc.CheckpointDir, retain); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	return nil
}

// encode serializes the complete run state as a checkpoint payload whose
// resume point is nextRound. The payload lives in the run's writer buffer
// and is valid until the next encode.
func (run *scenarioRun) encode(nextRound int) ([]byte, error) {
	sc := run.sc
	s := run.s
	// Ranks are read (and saved) below; pending joins would otherwise leak
	// their −1 sentinel into the snapshot. Flushing here is where the next
	// rank reader would have flushed anyway, so it cannot perturb the
	// trajectory.
	s.flushJoinRanks()
	w := &run.ckpt
	w.Reset()

	// Binding: what workload this snapshot belongs to.
	w.String(sc.Name)
	w.U64(sc.Opt.Seed)
	w.Int(sc.Rounds)
	w.Blob(sc.specJSON)

	// Runner state.
	w.Int(nextRound)
	w.Bool(run.alive)
	w.F64(run.sampler.classes.lo)
	w.F64(run.sampler.classes.hi)
	writeRNG(w, run.churnR)
	w.Bool(run.faultsOn)

	// Swarm options, resolved: defaults applied and (for capacity-sampled
	// scenarios) the initial UploadKbps vector materialized, so the resumed
	// swarm is rebuilt from values, not re-derived draws.
	optJSON, err := json.Marshal(s.opt)
	if err != nil {
		return nil, err
	}
	w.Blob(optJSON)
	w.Int(s.round)
	writeRNG(w, s.r)
	w.Int(int(s.edgeCap))
	w.Int(s.slotCap)
	w.Int(s.present)
	w.Int(s.presentDone)
	w.Int(s.totalDeparted)
	w.Int(s.completedLeechers)
	w.I64(s.liveDegSum)
	w.F64(s.sumUp)
	w.F64(s.sumDown)

	// Roster.
	w.Int(len(s.peers))
	for i := range s.peers {
		p := &s.peers[i]
		w.Int(int(s.slotOf[i]))
		w.F64(p.capacity)
		w.Bool(p.isSeed)
		w.Bool(p.departed)
		w.Int(p.joinRound)
		w.Int(p.departRound)
		w.Int(p.haveCount)
		w.Bool(p.done)
		w.Int(p.doneRound)
		w.Int(int(p.optimistic))
		w.F64(p.totalUp)
		w.F64(p.totalDown)
		w.F64(p.tftPartnerRankSum)
		w.Int(p.tftPartnerCount)
		// Departed-and-swept peers have released their bitfield; present and
		// crashed-pending peers still own one.
		w.Bool(p.have.words != nil)
		if p.have.words != nil {
			w.U64s(p.have.words)
		}
	}
	w.Ints(s.rank)

	// Slot occupancy and the free stack (order matters: it is a LIFO, and
	// allocation order shapes every later join).
	w.I32s(s.slotPeer)
	w.I32s(s.freeSlots)
	w.I32s(s.deg)

	// Per-occupied-slot CSR state: only the live edge prefix of each block
	// (the tail beyond deg is dead and rewritten before any read) plus the
	// slot's availability and piece-progress rows.
	for sl := 0; sl < s.slotCap; sl++ {
		if s.slotPeer[sl] < 0 {
			continue
		}
		base := int32(sl) * s.edgeCap
		for e := base; e < base+s.deg[sl]; e++ {
			w.Int(int(s.nbr[e]))
			w.Int(int(s.rev[e]))
			w.F64(s.recvWindow[e])
			w.F64(s.recvRate[e])
			w.Bool(s.unchoked[e])
			w.Int(int(s.inflight[e]))
			w.Int(int(s.want[e]))
		}
		pbase := sl * s.opt.Pieces
		w.I32s(s.avail[pbase : pbase+s.opt.Pieces])
		w.F64s(s.pieceProgress[pbase : pbase+s.opt.Pieces])
	}

	// Tracker registry, in order — handout sampling indexes into it, so the
	// order is part of the deterministic state.
	w.I32s(s.trk.present)

	if run.faultsOn {
		f := s.flt
		fspecJSON, err := json.Marshal(f.spec)
		if err != nil {
			return nil, err
		}
		w.Blob(fspecJSON)
		writeRNG(w, f.r)
		w.Bool(f.trackerDown)
		w.F64(f.lossRate)
		w.Bool(f.partitionOn)
		w.Int(f.partIdx)
		w.F64(f.partFraction)
		sides := make([]byte, len(f.side))
		for i, v := range f.side {
			sides[i] = byte(v)
		}
		w.Blob(sides)
		w.I32s(f.retryAt)
		w.Blob(f.retryN)
		// Only the unswept crash-queue suffix matters; the restored queue
		// starts compacted.
		w.I32s(f.crashq[f.crashHead:])
		w.Int(f.staleEdges)
		w.Int(f.totalCrashed)
		w.Int(f.announceFailures)
		w.Int(f.announceRetries)
	}

	// Shard layer: the shard width (part of the trajectory — shard streams
	// are keyed by shard index), every per-shard RNG sub-stream position,
	// and the lazy-stepping dirty sets. xferDirty and the active-list
	// caches are deliberately absent: the decoder marks every slot
	// cache-stale, and a rebuild is a pure function of the saved choke
	// state, so the first resumed transfer recomputes exactly the caches
	// the original run held. The series sampler keeps no state: it sums
	// the live roster at each sample. The step worker count is a runtime
	// knob, not state — a run may checkpoint under one count and resume
	// under another.
	w.Int(s.sh.slotsPerShard)
	w.Int(len(s.sh.streams))
	for _, sr := range s.sh.streams {
		writeRNG(w, sr)
	}
	w.U64s(s.sh.chokeDirty)
	w.U64s(s.sh.windowNZ)
	w.U64s(s.sh.ratesNZ)
	return w.Bytes(), nil
}

func writeRNG(w *checkpoint.Writer, r *rng.RNG) {
	st := r.Save()
	for _, word := range st {
		w.U64(word)
	}
}

// readRNG decodes a generator state; the all-zero state (xoshiro's invalid
// fixed point) reads as nil, which callers reject.
func readRNG(r *checkpoint.Reader) *rng.RNG {
	var st rng.State
	for i := range st {
		st[i] = r.U64()
	}
	return rng.FromState(st)
}

// resolveCheckpointPath accepts a checkpoint file or a directory of
// checkpoints (resolved to its newest).
func resolveCheckpointPath(path string) (string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	if info.IsDir() {
		return checkpoint.Latest(path)
	}
	return path, nil
}

// resumeRun rebuilds the run state from the checkpoint named by
// sc.ResumeFrom.
func (sc Scenario) resumeRun() (*scenarioRun, error) {
	tel := sc.Telemetry
	span := tel.StartPhase(telemetry.PhaseCheckpointLoad)
	defer tel.EndPhase(telemetry.PhaseCheckpointLoad, span)
	path, err := resolveCheckpointPath(sc.ResumeFrom)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: resume: %w", sc.Name, err)
	}
	payload, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: resume: %w", sc.Name, err)
	}
	run, err := sc.loadCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%w (checkpoint %s)", err, path)
	}
	return run, nil
}

// loadCheckpoint decodes a verified checkpoint payload into a runnable
// state, enforcing the scenario binding and the full invariant audit. It
// never panics on corrupt input — every failure is a descriptive error
// (FuzzLoadCheckpoint hammers this contract).
func (sc Scenario) loadCheckpoint(payload []byte) (*scenarioRun, error) {
	fail := func(format string, args ...any) (*scenarioRun, error) {
		return nil, fmt.Errorf("scenario %s: resume: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	r := checkpoint.NewReader(payload)
	name := r.String()
	seed := r.U64()
	rounds := r.Int()
	specJSON := r.Blob()
	nextRound := r.Int()
	alive := r.Bool()
	classes := classBounds{lo: r.F64(), hi: r.F64()}
	churnR := readRNG(r)
	faultsOn := r.Bool()
	if err := r.Err(); err != nil {
		return fail("%v", err)
	}

	// Binding: the checkpoint must belong to this exact workload.
	if name != sc.Name {
		return fail("checkpoint is for scenario %q", name)
	}
	if seed != sc.Opt.Seed {
		return fail("checkpoint seed %d, scenario seed %d", seed, sc.Opt.Seed)
	}
	if rounds != sc.Rounds {
		return fail("checkpoint horizon %d rounds, scenario %d", rounds, sc.Rounds)
	}
	if len(specJSON) > 0 && len(sc.specJSON) > 0 && !bytes.Equal(specJSON, sc.specJSON) {
		return fail("checkpoint was taken from a different spec for %q", name)
	}
	if faultsOn != !sc.Faults.IsZero() {
		return fail("checkpoint and scenario disagree about fault injection")
	}
	if nextRound < 0 || nextRound > sc.Rounds {
		return fail("resume round %d outside [0, %d]", nextRound, sc.Rounds)
	}
	if churnR == nil {
		return fail("invalid churn RNG state")
	}

	s, err := decodeSwarm(r, faultsOn)
	if err != nil {
		return fail("%v", err)
	}
	if r.Remaining() != 0 {
		return fail("%d trailing bytes after the state", r.Remaining())
	}
	if s.round != nextRound {
		return fail("swarm is at round %d, resume point is %d", s.round, nextRound)
	}
	// The deep audit: structural invariants, counter recounts, edge
	// symmetry. A payload that decodes cleanly but describes an
	// inconsistent swarm dies here instead of corrupting a run.
	if err := s.CheckInvariants(); err != nil {
		return fail("restored state failed the invariant audit: %v", err)
	}
	run := &scenarioRun{
		sc:       &sc,
		s:        s,
		churnR:   churnR,
		sampler:  seriesSampler{classes: classes},
		alive:    alive,
		start:    nextRound,
		faultsOn: faultsOn,
	}
	run.resolveIntervals()
	return run, nil
}

// decodeSwarm rebuilds a Swarm from the checkpoint stream. Every count,
// index and dimension is validated against the already-read state before
// it is used, so hostile payloads cannot trigger panics or outsized
// allocations.
func decodeSwarm(r *checkpoint.Reader, faultsOn bool) (*Swarm, error) {
	optJSON := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var opt Options
	if err := json.Unmarshal(optJSON, &opt); err != nil {
		return nil, fmt.Errorf("swarm options: %v", err)
	}
	round := r.Int()
	swarmR := readRNG(r)
	edgeCapIn := r.Int()
	slotCap := r.Int()
	present := r.Int()
	presentDone := r.Int()
	totalDeparted := r.Int()
	completedLeechers := r.Int()
	liveDegSum := r.I64()
	sumUp := r.F64()
	sumDown := r.F64()
	npeers := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The options drive modulo arithmetic and array geometry; a saved swarm
	// always carries the defaulted values, so zeros or inversions here mean
	// corruption.
	if opt.Leechers < 1 || opt.Pieces < 1 || opt.PieceKbit <= 0 ||
		opt.NeighborCount < 1 || opt.MaxNeighbors < opt.NeighborCount ||
		opt.TFTSlots < 1 || opt.OptimisticSlots < 0 ||
		opt.ChokeIntervalRounds < 1 || opt.OptimisticIntervalRounds < 1 {
		return nil, errors.New("implausible swarm options")
	}
	if swarmR == nil {
		return nil, errors.New("invalid swarm RNG state")
	}
	if edgeCapIn != opt.MaxNeighbors {
		return nil, fmt.Errorf("edge capacity %d does not match max neighbors %d", edgeCapIn, opt.MaxNeighbors)
	}
	edgeCap := int32(opt.MaxNeighbors)
	if slotCap < 1 ||
		int64(slotCap)*int64(edgeCap) > maxStateElems ||
		int64(slotCap)*int64(opt.Pieces) > maxStateElems {
		return nil, fmt.Errorf("implausible slot capacity %d", slotCap)
	}
	total := slotCap * int(edgeCap)
	// A peer costs at least ~92 payload bytes, so the roster length is
	// bounded by the bytes actually present.
	if npeers < 0 || npeers > r.Remaining()/64 {
		return nil, fmt.Errorf("implausible roster size %d", npeers)
	}
	haveWords := (opt.Pieces + 63) / 64

	peers := make([]peer, npeers)
	slotOf := make([]int32, npeers)
	for i := range peers {
		p := &peers[i]
		p.id = i
		slotOf[i] = int32(r.Int())
		p.capacity = r.F64()
		p.isSeed = r.Bool()
		p.departed = r.Bool()
		p.joinRound = r.Int()
		p.departRound = r.Int()
		p.haveCount = r.Int()
		p.done = r.Bool()
		p.doneRound = r.Int()
		p.optimistic = int32(r.Int())
		p.totalUp = r.F64()
		p.totalDown = r.F64()
		p.tftPartnerRankSum = r.F64()
		p.tftPartnerCount = r.Int()
		hasHave := r.Bool()
		if hasHave {
			words := r.U64s()
			if len(words) != haveWords {
				return nil, fmt.Errorf("peer %d: bitfield has %d words, want %d", i, len(words), haveWords)
			}
			p.have = bitset{words: words, n: opt.Pieces}
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch {
		case slotOf[i] < -1 || slotOf[i] >= int32(slotCap):
			return nil, fmt.Errorf("peer %d: slot %d out of range", i, slotOf[i])
		case slotOf[i] >= 0 && !hasHave:
			return nil, fmt.Errorf("peer %d: slotted but has no bitfield", i)
		case p.optimistic < -1 || p.optimistic >= int32(total):
			return nil, fmt.Errorf("peer %d: optimistic edge %d out of range", i, p.optimistic)
		case p.haveCount < 0 || p.haveCount > opt.Pieces:
			return nil, fmt.Errorf("peer %d: piece count %d out of range", i, p.haveCount)
		}
	}
	rank := r.Ints()
	slotPeer := r.I32s()
	freeSlots := r.I32s()
	deg := r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(rank) != npeers {
		return nil, fmt.Errorf("rank vector has %d entries for %d peers", len(rank), npeers)
	}
	if len(slotPeer) != slotCap || len(deg) != slotCap {
		return nil, fmt.Errorf("slot arrays sized %d/%d for capacity %d", len(slotPeer), len(deg), slotCap)
	}
	for sl, id := range slotPeer {
		if id < -1 || int(id) >= npeers {
			return nil, fmt.Errorf("slot %d: occupant %d out of range", sl, id)
		}
		if deg[sl] < 0 || deg[sl] > edgeCap {
			return nil, fmt.Errorf("slot %d: degree %d out of range", sl, deg[sl])
		}
	}
	if len(freeSlots) > slotCap {
		return nil, fmt.Errorf("free list has %d entries for capacity %d", len(freeSlots), slotCap)
	}
	for _, sl := range freeSlots {
		if sl < 0 || int(sl) >= slotCap {
			return nil, fmt.Errorf("free slot %d out of range", sl)
		}
	}

	s := &Swarm{
		opt:               opt,
		peers:             peers,
		r:                 swarmR,
		round:             round,
		rank:              rank,
		edgeCap:           edgeCap,
		slotCap:           slotCap,
		slotOf:            slotOf,
		slotPeer:          slotPeer,
		freeSlots:         freeSlots,
		deg:               deg,
		nbr:               make([]int32, total),
		rev:               make([]int32, total),
		recvWindow:        make([]float64, total),
		recvRate:          make([]float64, total),
		unchoked:          make([]bool, total),
		inflight:          make([]int32, total),
		want:              make([]int32, total),
		avail:             make([]int32, slotCap*opt.Pieces),
		pieceProgress:     make([]float64, slotCap*opt.Pieces),
		present:           present,
		presentDone:       presentDone,
		totalDeparted:     totalDeparted,
		completedLeechers: completedLeechers,
		liveDegSum:        liveDegSum,
		sumUp:             sumUp,
		sumDown:           sumDown,
		active:            make([]int32, edgeCap),
		mark:              make([]uint64, opt.Pieces),
		rankOrder:         make([]int32, slotCap),
	}
	s.joinSort.s = s
	s.initShards()
	for sl := 0; sl < slotCap; sl++ {
		if slotPeer[sl] < 0 {
			continue
		}
		base := int32(sl) * edgeCap
		for e := base; e < base+deg[sl]; e++ {
			s.nbr[e] = int32(r.Int())
			s.rev[e] = int32(r.Int())
			s.recvWindow[e] = r.F64()
			s.recvRate[e] = r.F64()
			s.unchoked[e] = r.Bool()
			s.inflight[e] = int32(r.Int())
			s.want[e] = int32(r.Int())
			if err := r.Err(); err != nil {
				return nil, err
			}
			switch {
			case s.nbr[e] < 0 || int(s.nbr[e]) >= npeers:
				return nil, fmt.Errorf("edge %d: target %d out of range", e, s.nbr[e])
			case s.rev[e] < 0 || int(s.rev[e]) >= total:
				return nil, fmt.Errorf("edge %d: reverse index %d out of range", e, s.rev[e])
			case s.inflight[e] < -1 || int(s.inflight[e]) >= opt.Pieces:
				return nil, fmt.Errorf("edge %d: in-flight piece %d out of range", e, s.inflight[e])
			}
		}
		availRow := r.I32s()
		progRow := r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(availRow) != opt.Pieces || len(progRow) != opt.Pieces {
			return nil, fmt.Errorf("slot %d: piece rows sized %d/%d for %d pieces",
				sl, len(availRow), len(progRow), opt.Pieces)
		}
		copy(s.avail[sl*opt.Pieces:], availRow)
		copy(s.pieceProgress[sl*opt.Pieces:], progRow)
	}

	trkPresent := r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.trk.present = trkPresent
	s.trk.pos = make([]int32, npeers)
	for i := range s.trk.pos {
		s.trk.pos[i] = -1
	}
	for i, id := range trkPresent {
		if id < 0 || int(id) >= npeers {
			return nil, fmt.Errorf("tracker entry %d out of range", id)
		}
		s.trk.pos[id] = int32(i)
	}

	if faultsOn {
		if err := decodeFaults(r, s, npeers); err != nil {
			return nil, err
		}
	}

	if err := decodeShards(r, s); err != nil {
		return nil, err
	}
	return s, r.Err()
}

// decodeShards restores the shard layer from the tail of the payload:
// shard width, per-shard RNG sub-stream positions and the lazy-stepping
// dirty bitmaps. xferDirty is set everywhere instead of restored —
// rebuilding an active-list cache is a pure function of the
// already-decoded choke state, so the first transfer after resume
// reconstructs the exact caches the original run held.
func decodeShards(r *checkpoint.Reader, s *Swarm) error {
	sps := r.Int()
	nstreams := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if sps < 64 || sps%64 != 0 || sps > maxStateElems {
		return fmt.Errorf("implausible shard width %d", sps)
	}
	s.setShardSlots(sps)
	if nstreams != s.numShards() {
		return fmt.Errorf("checkpoint carries %d shard streams, geometry needs %d", nstreams, s.numShards())
	}
	for k := 0; k < nstreams; k++ {
		sr := readRNG(r)
		if sr == nil {
			return fmt.Errorf("invalid shard %d RNG state", k)
		}
		s.sh.streams[k] = sr
	}
	chokeDirty := r.U64s()
	windowNZ := r.U64s()
	ratesNZ := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	nw := bmWords(s.slotCap)
	if len(chokeDirty) != nw || len(windowNZ) != nw || len(ratesNZ) != nw {
		return fmt.Errorf("dirty bitmaps sized %d/%d/%d words for capacity %d",
			len(chokeDirty), len(windowNZ), len(ratesNZ), s.slotCap)
	}
	copy(s.sh.chokeDirty, chokeDirty)
	copy(s.sh.windowNZ, windowNZ)
	copy(s.sh.ratesNZ, ratesNZ)
	for i := range s.sh.xferDirty {
		s.sh.xferDirty[i] = ^uint64(0)
	}
	return nil
}

// decodeFaults rebuilds the fault controller: the spec re-arms the layer
// (re-deriving the knobs exactly as the original run did), then the live
// window flags, per-slot retry/partition state, crash queue and counters
// overwrite the fresh state.
func decodeFaults(r *checkpoint.Reader, s *Swarm, npeers int) error {
	fspecJSON := r.Blob()
	if err := r.Err(); err != nil {
		return err
	}
	var fspec FaultsSpec
	if err := json.Unmarshal(fspecJSON, &fspec); err != nil {
		return fmt.Errorf("faults spec: %v", err)
	}
	if fspec.RetryBaseRounds < 0 || fspec.RetryCapRounds < 0 || fspec.NeighborTimeoutRounds < 0 {
		return errors.New("implausible fault knobs")
	}
	faultR := readRNG(r)
	if faultR == nil {
		return errors.New("invalid fault RNG state")
	}
	s.EnableFaults(fspec, faultR)
	f := s.flt
	f.trackerDown = r.Bool()
	f.lossRate = r.F64()
	f.partitionOn = r.Bool()
	f.partIdx = r.Int()
	f.partFraction = r.F64()
	sides := r.Blob()
	retryAt := r.I32s()
	retryN := r.Blob()
	crashq := r.I32s()
	f.staleEdges = r.Int()
	f.totalCrashed = r.Int()
	f.announceFailures = r.Int()
	f.announceRetries = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if f.partIdx < -1 || f.partIdx >= len(fspec.Injections) {
		return fmt.Errorf("partition index %d out of range", f.partIdx)
	}
	if len(sides) != s.slotCap || len(retryAt) != s.slotCap || len(retryN) != s.slotCap {
		return fmt.Errorf("fault arrays sized %d/%d/%d for capacity %d",
			len(sides), len(retryAt), len(retryN), s.slotCap)
	}
	for i, v := range sides {
		f.side[i] = int8(v)
	}
	f.retryAt = retryAt
	f.retryN = retryN
	for _, id := range crashq {
		if id < 0 || int(id) >= npeers {
			return fmt.Errorf("crash-queue entry %d out of range", id)
		}
	}
	f.crashq = crashq
	f.crashHead = 0
	return nil
}

// ResumeSpec reads the scenario spec embedded in a checkpoint (a file, or
// a directory whose newest checkpoint is used), so a resume can recompile
// the exact workload from the snapshot alone. Checkpoints of hand-built
// (non-spec) scenarios carry no spec and are rejected with a descriptive
// error.
func ResumeSpec(path string) (ScenarioSpec, error) {
	resolved, err := resolveCheckpointPath(path)
	if err != nil {
		return ScenarioSpec{}, err
	}
	payload, err := checkpoint.ReadFile(resolved)
	if err != nil {
		return ScenarioSpec{}, err
	}
	r := checkpoint.NewReader(payload)
	_ = r.String() // name
	_ = r.U64()    // seed
	_ = r.Int()    // rounds
	specJSON := r.Blob()
	if err := r.Err(); err != nil {
		return ScenarioSpec{}, fmt.Errorf("checkpoint: read %s: %v", resolved, err)
	}
	if len(specJSON) == 0 {
		return ScenarioSpec{}, fmt.Errorf("checkpoint %s embeds no scenario spec (hand-built scenario); rebuild the scenario and set ResumeFrom", resolved)
	}
	sp, err := ParseSpec(specJSON)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("checkpoint %s: embedded spec: %w", resolved, err)
	}
	return sp, nil
}

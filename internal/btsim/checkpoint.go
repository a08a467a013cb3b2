package btsim

// Durable checkpoint/restore for scenario runs. A checkpoint is the run
// state nothing else determines — the swarm's roster (with each peer's
// transfer totals), CSR wiring, free lists and bitfields; the tracker
// registry (in handout order); the fault controller's windows, backoff
// timers and crash queue; every RNG stream position; and the runner's
// round cursor — encoded by this file's codec and sealed in an
// internal/checkpoint container. The bar is byte-identity: a run resumed
// from a checkpoint produces exactly the sample/event stream and final
// result the uninterrupted run would have produced from that round on.
//
// The layout is written down once. Each section of the state — binding,
// runner, swarm header, roster, slot arrays, CSR edges, tracker, faults,
// shards — has one walk that names its fields in order through a codec.
// In write mode (encode) the codec appends each field; in read mode
// (loadCheckpoint) it reads each field back into the same variable, so
// the encoder and the decoder cannot drift apart. ResumeSpec walks the
// binding section alone.
//
// What is deliberately NOT saved is everything reconstructible without
// observable effect: scratch buffers (candidate lists, the active-transfer
// caches and their sending bitmap — every slot loads cache-stale), the
// recycled-bitset pool (bitsets are cleared on reuse), free slots' edge
// rows (rewritten before first read), the tracker's position index
// (rebuilt from the registry), and telemetry (runtime instrumentation,
// never simulation state). Nor are the integers that are functions of the
// roster, the bitfields and the wiring: the membership and degree
// counters (present, presentDone, totalDeparted, completedLeechers,
// liveDegSum), each edge's rev and want, each occupied slot's avail row,
// each slot's in-flight counts and choke due phases, and the fault
// layer's staleEdges. A load recounts them with recount, the
// definition CheckInvariants checks the maintained values against, so they
// resume exactly as they were. Nor is the runner's derived state: the
// capacity-class bounds are a function of the initial peers, which stay in
// the roster, and the drained-edge detector reads the present count at the
// top of each round. The per-peer float sums (totalUp, totalDown,
// tftPartnerRankSum) are primary state and stay saved.
//
// The binding section names the workload: the scenario's name, seed and
// horizon and the JSON bytes of the spec it was compiled from. Every
// Scenario comes from ScenarioSpec.Compile, so every checkpoint embeds its
// spec; ResumeSpec recovers it, and a load requires it to equal the
// scenario's byte for byte. The spec is the whole binding: it fixes the
// swarm options (RunObserver refuses a scenario whose Opt was edited after
// Compile) and the fault layer, whether it is on and its spec.
//
// Loading trusts nothing. The container layer rejects truncation, bit
// flips and version skew. The edge stride and the piece count that size
// the arrays come from the scenario's options, never from the file: the
// saved edge stride must equal the derived one. In read mode the codec
// checks every count, index and length before the allocation or index it
// guards, and the first failed check ends the walk. The recount then
// rebuilds the unsaved values, failing on any edge it cannot count, and
// the restored swarm must pass the full CheckInvariants audit before a
// single round runs. A corrupt file yields a descriptive error, never a
// panic and never silently-wrong state.
//
// Only the encode runs on the stepping path. A writer goroutine persists
// the file (startCheckpoint, persist) while the run steps on, and the
// runner holds the observer calls made meanwhile until the file is durable
// (see outbox), so the stream a consumer sees is the one an in-place write
// would have produced.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// CheckStateBudget rejects a scenario whose swarm would preallocate more
// than maxStateElems cells in one state array — the bound a checkpoint
// load enforces — before anything is allocated. The largest array has
// max(MaxPeers, initial peers + expected arrivals) slots of max(edge
// stride, pieces) cells: the roster keeps every arrival however MaxPeers
// is set. The peer count is estimated in float64, so an arrival volume too
// large for an int fails here instead of wrapping. The tracker daemon and
// the btswarm scenario modes run the check on every spec.
func (sc *Scenario) CheckStateBudget() error {
	opt := sc.Opt.withDefaults()
	peers := max(float64(opt.MaxPeers), sc.spec.peerEstimate())
	stride := max(opt.MaxNeighbors, opt.Pieces)
	if cells := peers * float64(stride); cells > maxStateElems {
		return fmt.Errorf("btsim: spec %q: swarm state of %.4g cells (%.4g peers × %d) exceeds the budget of %d",
			sc.spec.Name, cells, peers, stride, maxStateElems)
	}
	return nil
}

// writeCheckpoint snapshots the run into CheckpointDir as the checkpoint
// that resumes from nextRound and returns once the file is durable: it is
// startCheckpoint followed by awaitCheckpoint.
func (run *scenarioRun) writeCheckpoint(nextRound int) error {
	if err := run.startCheckpoint(nextRound); err != nil {
		return err
	}
	return run.awaitCheckpoint()
}

// startCheckpoint encodes the checkpoint that resumes from nextRound into
// the run's one encode buffer and hands it to a writer goroutine, which
// persists it. The write before it is awaited first, because it still
// reads that buffer. From here until the write is awaited, run.out holds
// the observer calls.
func (run *scenarioRun) startCheckpoint(nextRound int) error {
	if err := run.awaitCheckpoint(); err != nil {
		return err
	}
	tel := run.sc.Telemetry
	span := tel.StartPhase(telemetry.PhaseCheckpointWrite)
	payload := run.encode(nextRound)
	tel.EndPhase(telemetry.PhaseCheckpointWrite, span)
	if run.written == nil {
		run.written = make(chan error, 1)
	}
	run.out.hold = true
	go func() { run.written <- run.sc.persist(payload, nextRound) }()
	return nil
}

// pollCheckpoint finishes the write in flight if it is done, without
// blocking.
func (run *scenarioRun) pollCheckpoint() error {
	if !run.out.hold {
		return nil
	}
	select {
	case err := <-run.written:
		return run.finishWrite(err)
	default:
		return nil
	}
}

// awaitCheckpoint waits for the write in flight, if any, and finishes it.
func (run *scenarioRun) awaitCheckpoint() error {
	if !run.out.hold {
		return nil
	}
	tel := run.sc.Telemetry
	span := tel.StartPhase(telemetry.PhaseCheckpointWrite)
	err := <-run.written
	tel.EndPhase(telemetry.PhaseCheckpointWrite, span)
	return run.finishWrite(err)
}

// finishWrite ends a write whose outcome is err. A durable file releases
// the observer calls held behind it, in order; a failed write drops them
// and is returned, so the stream stops where it would have had the run
// waited for the write in place.
func (run *scenarioRun) finishWrite(err error) error {
	if err != nil {
		run.out.drop()
		return err
	}
	tel := run.sc.Telemetry
	span := tel.StartPhase(telemetry.PhaseSample) // delivery is part of sampling
	run.out.release()
	tel.EndPhase(telemetry.PhaseSample, span)
	return nil
}

// persist makes an encoded checkpoint durable: it writes payload
// atomically into CheckpointDir as the checkpoint that resumes from
// nextRound, then rotates old checkpoints away per CheckpointRetain. It
// runs on the writer goroutine and reads only the scenario's settings and
// payload, which the stepping path leaves alone until the outcome is
// received.
func (sc *Scenario) persist(payload []byte, nextRound int) error {
	tel := sc.Telemetry
	span := tel.StartPhase(telemetry.PhaseCheckpointSync)
	defer tel.EndPhase(telemetry.PhaseCheckpointSync, span)
	if err := os.MkdirAll(sc.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("scenario %s: checkpoint: %w", sc.spec.Name, err)
	}
	path := filepath.Join(sc.CheckpointDir, checkpoint.FileName(nextRound))
	n, err := checkpoint.WriteFile(path, payload)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.spec.Name, err)
	}
	tel.Inc(telemetry.CtrCheckpointsWritten)
	tel.Add(telemetry.CtrCheckpointBytes, n)
	retain := sc.CheckpointRetain
	if retain == 0 {
		retain = 3
	}
	if retain > 0 {
		if err := checkpoint.Rotate(sc.CheckpointDir, retain); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.spec.Name, err)
		}
	}
	return nil
}

// encode serializes the complete run state as a checkpoint payload whose
// resume point is nextRound. The payload lives in the run's writer buffer
// and is valid until the next encode.
func (run *scenarioRun) encode(nextRound int) []byte {
	// Ranks are read (and saved) below; pending joins would otherwise leak
	// their −1 sentinel into the snapshot. Flushing here is where the next
	// rank reader would have flushed anyway, so it cannot perturb the
	// trajectory.
	run.s.flushJoinRanks()
	c := codec{buf: run.ckpt[:0]}
	run.walk(&c, &nextRound)
	run.ckpt = c.buf
	return c.buf
}

// binding is what workload a checkpoint belongs to.
type binding struct {
	name   string
	seed   uint64
	rounds int
	spec   []byte
}

func (c *codec) binding(b *binding) {
	c.str(&b.name)
	c.u64(&b.seed)
	c.int(&b.rounds)
	c.blob(&b.spec)
}

// walk names the saved run state in checkpoint order; next is the round the
// checkpoint resumes into. In read mode run starts out holding only what
// the scenario derives — its fault flag — and a swarm with nothing but its
// options and edge stride set, and the walk checks the file against them.
func (run *scenarioRun) walk(c *codec, next *int) {
	sc := run.sc
	b := binding{sc.spec.Name, sc.Opt.Seed, sc.spec.Rounds, sc.specJSON}
	c.binding(&b)
	// Checks whose messages carry values sit in read-mode blocks, so the
	// write path neither boxes those values nor calls the checks.
	if c.reading {
		c.check(b.name == sc.spec.Name, "checkpoint is for scenario %q", b.name)
		c.check(b.seed == sc.Opt.Seed, "checkpoint seed %d, scenario seed %d", b.seed, sc.Opt.Seed)
		c.check(b.rounds == sc.spec.Rounds, "checkpoint horizon %d rounds, scenario %d", b.rounds, sc.spec.Rounds)
		c.check(len(b.spec) > 0, "checkpoint embeds no scenario spec")
		c.check(bytes.Equal(b.spec, sc.specJSON), "checkpoint was taken from a different spec for %q", b.name)
	}

	c.int(next)
	c.rng(&run.churnR, "churn")

	s := run.s
	c.swarmHeader(s)
	if c.reading {
		c.check(*next >= 0 && *next <= sc.spec.Rounds, "resume round %d outside [0, %d]", *next, sc.spec.Rounds)
		c.check(s.round == *next, "swarm is at round %d, resume point is %d", s.round, *next)
	}
	c.roster(s)
	c.slots(s)
	c.edges(s)
	c.tracker(s)
	if run.faultsOn {
		c.faults(s, *sc.spec.Faults)
	}
	c.shards(s)
}

// swarmHeader walks the swarm's clock, RNG and geometry. The edge stride
// and piece count that size every array come from the scenario, never
// from the file.
func (c *codec) swarmHeader(s *Swarm) {
	c.int(&s.round)
	c.rng(&s.r, "swarm")
	c.same(int(s.edgeCap), "edge capacity")
	// Each slot costs at least 16 payload bytes (its occupant and degree).
	c.size(&s.slotCap, 1, 16, max(int(s.edgeCap), s.opt.Pieces), "slot capacity")
}

// roster walks every peer ever seen (departed ones keep their totals),
// then the rank vector. The initial peers never leave it, so a roster is
// never smaller than the initial population.
func (c *codec) roster(s *Swarm) {
	n := len(s.peers)
	// A peer costs at least ~92 payload bytes.
	c.size(&n, s.opt.Leechers+s.opt.Seeds, 64, 1, "roster size")
	if c.reading {
		s.peers = make([]peer, n)
		s.slotOf = make([]int32, n)
		s.rank = make([]int, n)
	}
	edges := s.slotCap * int(s.edgeCap)
	for i := range s.peers {
		p := &s.peers[i]
		p.id = i
		c.i32(&s.slotOf[i])
		c.f64(&p.capacity)
		c.bool(&p.isSeed)
		c.bool(&p.departed)
		c.int(&p.joinRound)
		c.int(&p.departRound)
		c.int(&p.haveCount)
		c.bool(&p.done)
		c.int(&p.doneRound)
		c.i32(&p.optimistic)
		c.f64(&p.totalUp)
		c.f64(&p.totalDown)
		c.f64(&p.tftPartnerRankSum)
		c.int(&p.tftPartnerCount)
		// Departed-and-swept peers have released their bitfield; present and
		// crashed-pending peers still own one.
		has := p.have.words != nil
		c.bool(&has)
		if c.reading {
			c.inRange(int(s.slotOf[i]), -1, s.slotCap, "peer %d: slot", i)
			c.inRange(p.haveCount, 0, s.opt.Pieces+1, "peer %d: piece count", i)
			c.inRange(int(p.optimistic), -1, edges, "peer %d: optimistic edge", i)
			c.check(has || s.slotOf[i] < 0, "peer %d: slotted but has no bitfield", i)
			if has {
				p.have = newBitset(s.opt.Pieces)
			}
		}
		if has {
			c.u64sInto(p.have.words, "bitfield")
			if c.reading {
				c.check(!p.have.padded(), "peer %d: bitfield sets a bit past piece %d", i, s.opt.Pieces)
			}
		}
	}
	c.intsInto(s.rank, "rank vector")
}

// slots walks slot occupancy, the free stack (order matters: it is a
// LIFO, and allocation order shapes every later join) and the degrees;
// read mode then allocates the slot storage they describe.
func (c *codec) slots(s *Swarm) {
	if c.reading {
		s.slotPeer = make([]int32, s.slotCap)
		s.deg = make([]int32, s.slotCap)
	}
	c.i32sInto(s.slotPeer, "slot occupancy")
	c.idxs(s.slotPeer, -1, len(s.peers), "slot %d: occupant")
	c.i32s(&s.freeSlots)
	c.idxs(s.freeSlots, 0, s.slotCap, "free list entry %d: slot")
	c.i32sInto(s.deg, "degrees")
	c.idxs(s.deg, 0, int(s.edgeCap)+1, "slot %d: degree")
	if c.reading {
		c.check(len(s.freeSlots) <= s.slotCap, "free list has %d entries for capacity %d", len(s.freeSlots), s.slotCap)
		s.allocSlots()
	}
}

// edges walks each occupied slot's CSR state: only the live edge prefix of
// its block (the tail beyond deg is dead and rewritten before any read)
// plus the slot's piece-progress row. Each edge's rev and want and the
// slot's avail row are recounted on load.
func (c *codec) edges(s *Swarm) {
	peers, pieces := len(s.peers), s.opt.Pieces
	for sl := 0; sl < s.slotCap; sl++ {
		if s.slotPeer[sl] < 0 {
			continue
		}
		base := int32(sl) * s.edgeCap
		for e := base; e < base+s.deg[sl]; e++ {
			c.i32(&s.nbr[e])
			c.f64(&s.recvWindow[e])
			c.f64(&s.recvRate[e])
			c.bool(&s.unchoked[e])
			c.i32(&s.inflight[e])
			if c.reading {
				c.inRange(int(s.nbr[e]), 0, peers, "edge %d: target", int(e))
				c.inRange(int(s.inflight[e]), -1, pieces, "edge %d: in-flight piece", int(e))
			}
		}
		c.f64sInto(s.pieceProgress[sl*pieces:(sl+1)*pieces], "piece-progress row")
	}
}

// tracker walks the tracker registry in order — handout sampling indexes
// into it, so the order is part of the deterministic state — and read mode
// rebuilds the position index from it.
func (c *codec) tracker(s *Swarm) {
	c.i32s(&s.trk.present)
	c.idxs(s.trk.present, 0, len(s.peers), "tracker entry %d: peer")
	if c.reading {
		s.trk.pos = make([]int32, len(s.peers))
		for i := range s.trk.pos {
			s.trk.pos[i] = -1
		}
		for i, id := range s.trk.present {
			s.trk.pos[id] = int32(i)
		}
	}
}

// faults walks the fault controller. Read mode re-arms the layer from the
// scenario's spec (re-deriving the knobs exactly as the original run did);
// the live window flags, per-slot retry and partition state, crash queue
// and cumulative counters then overwrite the fresh state. staleEdges is
// recounted on load.
func (c *codec) faults(s *Swarm, spec FaultsSpec) {
	if c.reading {
		s.EnableFaults(spec, nil)
	}
	f := s.flt
	c.rng(&f.r, "fault")
	c.bool(&f.trackerDown)
	c.f64(&f.lossRate)
	c.bool(&f.partitionOn)
	c.int(&f.partIdx)
	c.check(f.partIdx >= -1 && f.partIdx < len(spec.Injections), "partition index %d out of range", f.partIdx)
	c.f64(&f.partFraction)
	c.bytesInto(f.side, "partition sides")
	c.i32sInto(f.retryAt, "retry rounds")
	c.bytesInto(f.retryN, "retry counts")
	// Only the unswept crash-queue suffix matters; the restored queue
	// starts compacted.
	q := f.crashq[f.crashHead:]
	c.i32s(&q)
	c.idxs(q, 0, len(s.peers), "crash queue entry %d: peer")
	if c.reading {
		f.crashq = q
	}
	c.int(&f.totalCrashed)
	c.int(&f.announceFailures)
	c.int(&f.announceRetries)
}

// shards walks the shard layer: the shard width (part of the trajectory —
// shard streams are keyed by shard index) and every per-shard RNG
// sub-stream position. xferDirty, sending and the active-list caches are
// deliberately absent: read mode marks every slot below slotCap
// cache-stale (no bit past it, so a walk over the set bits stays inside
// the slot arrays), and a rebuild is a pure function of the saved choke
// state, so the first resumed transfer recomputes exactly the caches the
// original run held.
// The series sampler keeps no state: it sums the live roster at each
// sample. The step worker count is a runtime knob, not state — a run may
// checkpoint under one count and resume under another.
func (c *codec) shards(s *Swarm) {
	width := s.sh.slotsPerShard
	c.int(&width)
	if c.reading {
		c.check(width >= 64 && width%64 == 0 && width <= maxStateElems, "implausible shard width %d", width)
		s.setShardSlots(width)
	}
	c.same(len(s.sh.streams), "shard stream count")
	for k := range s.sh.streams {
		c.rng(&s.sh.streams[k], "shard")
	}
	if c.reading {
		for sl := range s.slotCap {
			bmSet(s.sh.xferDirty, sl)
		}
	}
}

// codec walks checkpoint fields in one of two modes. In write mode it
// appends each field a walk names to buf; in read mode it reads the field
// at off back into the same variable. Every value is an 8-byte
// little-endian word (an int as int64, a float64 as its IEEE-754 bits, so
// NaN payloads round-trip) except a bool, which is one byte; a slice or
// string is its length word followed by its elements. Only read mode
// checks what it reads: a short payload, a count the remaining bytes
// cannot hold, a bool byte above 1, an int32 overflow or a failed check
// ends the walk with a walkError panic, which readWalk turns back into an
// error.
type codec struct {
	buf     []byte
	off     int
	reading bool
}

type walkError struct{ err error }

// readWalk runs walk in read mode over payload and returns the failure
// that ended it, if any.
func readWalk(payload []byte, walk func(c *codec)) (err error) {
	defer func() {
		if e := recover(); e != nil {
			we, ok := e.(walkError)
			if !ok {
				panic(e)
			}
			err = we.err
		}
	}()
	walk(&codec{buf: payload, reading: true})
	return nil
}

// fail ends a read-mode walk.
func (c *codec) fail(format string, args ...any) {
	panic(walkError{fmt.Errorf(format, args...)})
}

// corrupt ends a read-mode walk on bytes that do not decode, naming the
// offset reached.
func (c *codec) corrupt(format string, args ...any) {
	c.fail("%w: offset %d: %s", checkpoint.ErrCorrupt, c.off, fmt.Sprintf(format, args...))
}

// check fails a read-mode walk unless ok.
func (c *codec) check(ok bool, format string, args ...any) {
	if c.reading && !ok {
		c.fail(format, args...)
	}
}

// inRange fails a read-mode walk unless lo <= v < hi; what names the
// value, with a %d for at.
func (c *codec) inRange(v, lo, hi int, what string, at int) {
	if c.reading && (v < lo || v >= hi) {
		c.fail(what+" %d out of range [%d, %d)", at, v, lo, hi)
	}
}

// idxs fails a read-mode walk unless every entry of vals lies in [lo, hi).
func (c *codec) idxs(vals []int32, lo, hi int, what string) {
	for i := 0; c.reading && i < len(vals); i++ {
		c.inRange(int(vals[i]), lo, hi, what, i)
	}
}

// size walks a count that read mode allocates by: at least lo, with
// minBytes of payload still left per element and cells state cells per
// element within maxStateElems.
func (c *codec) size(n *int, lo, minBytes, cells int, what string) {
	c.int(n)
	if c.reading && (*n < lo || *n > c.remaining()/minBytes || int64(*n)*int64(cells) > maxStateElems) {
		c.fail("implausible %s %d", what, *n)
	}
}

// same walks an int the reader already knows; the saved value must match.
func (c *codec) same(v int, what string) {
	saved := v
	c.int(&saved)
	if saved != v {
		c.fail("checkpoint %s %d, want %d", what, saved, v)
	}
}

func (c *codec) remaining() int { return len(c.buf) - c.off }

// take consumes the next n bytes of a read-mode payload.
func (c *codec) take(n int) []byte {
	if n > c.remaining() {
		c.corrupt("need %d bytes, %d remain", n, c.remaining())
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// read reads the next value into v, a pointer to a bool or to one of the
// word kinds. It stays out of line, which keeps the primitives small
// enough to inline on the write path.
func (c *codec) read(v any) {
	if p, ok := v.(*bool); ok {
		b := c.take(1)[0]
		if b > 1 {
			c.corrupt("bool byte %#x", b)
		}
		*p = b == 1
		return
	}
	w := binary.LittleEndian.Uint64(c.take(8))
	switch p := v.(type) {
	case *uint64:
		*p = w
	case *int:
		*p = int(int64(w))
	case *int32:
		if int64(w) != int64(int32(w)) {
			c.corrupt("value %d overflows int32", int64(w))
		}
		*p = int32(w)
	case *float64:
		*p = math.Float64frombits(w)
	}
}

// count reads a slice's length word, which must fit in the bytes left at
// elemSize bytes per element, so a hostile count is rejected before the
// allocation it would size.
func (c *codec) count(elemSize int) int {
	var n uint64
	c.read(&n)
	if n > uint64(c.remaining()/elemSize) {
		c.corrupt("slice declares %d elements, only %d bytes remain", n, c.remaining())
	}
	return int(n)
}

// length walks the length word of a slice whose length read mode already
// knows.
func (c *codec) length(n int, what string) {
	got := n
	c.int(&got)
	if got != n {
		c.fail("%s has %d entries, want %d", what, got, n)
	}
}

func (c *codec) u64(v *uint64) {
	if c.reading {
		c.read(v)
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	}
}

func (c *codec) int(v *int) {
	if c.reading {
		c.read(v)
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(int64(*v)))
	}
}

func (c *codec) i32(v *int32) {
	if c.reading {
		c.read(v)
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(int64(*v)))
	}
}

func (c *codec) f64(v *float64) {
	if c.reading {
		c.read(v)
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	}
}

func (c *codec) bool(v *bool) {
	if c.reading {
		c.read(v)
	} else {
		c.buf = append(c.buf, boolByte(*v))
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// blob walks a length-prefixed byte slice; read mode returns a fresh
// copy, nil when empty.
func (c *codec) blob(v *[]byte) {
	if c.reading {
		*v = append([]byte(nil), c.take(c.count(1))...)
		return
	}
	c.buf = append(binary.LittleEndian.AppendUint64(c.buf, uint64(len(*v))), *v...)
}

func (c *codec) str(v *string) {
	if c.reading {
		*v = string(c.take(c.count(1)))
		return
	}
	c.buf = append(binary.LittleEndian.AppendUint64(c.buf, uint64(len(*v))), *v...)
}

// i32s walks a length-prefixed []int32; read mode allocates it, nil when
// empty.
func (c *codec) i32s(v *[]int32) {
	n := len(*v)
	if !c.reading {
		c.int(&n)
	} else if n = c.count(8); n > 0 {
		*v = make([]int32, n)
	} else {
		*v = nil
	}
	for i := range *v {
		c.i32(&(*v)[i])
	}
}

// The …Into forms walk a length-prefixed slice into dst, whose length read
// mode already knows and has allocated.

func (c *codec) i32sInto(dst []int32, what string) {
	c.length(len(dst), what)
	for i := range dst {
		c.i32(&dst[i])
	}
}

func (c *codec) intsInto(dst []int, what string) {
	c.length(len(dst), what)
	for i := range dst {
		c.int(&dst[i])
	}
}

func (c *codec) u64sInto(dst []uint64, what string) {
	c.length(len(dst), what)
	for i := range dst {
		c.u64(&dst[i])
	}
}

func (c *codec) f64sInto(dst []float64, what string) {
	c.length(len(dst), what)
	for i := range dst {
		c.f64(&dst[i])
	}
}

func (c *codec) bytesInto(dst []byte, what string) {
	c.length(len(dst), what)
	if c.reading {
		copy(dst, c.take(len(dst)))
	} else {
		c.buf = append(c.buf, dst...)
	}
}

// rng walks a generator state; read mode rejects the all-zero state
// (xoshiro's invalid fixed point).
func (c *codec) rng(r **rng.RNG, what string) {
	var st rng.State
	if !c.reading {
		st = (*r).Save()
	}
	for i := range st {
		c.u64(&st[i])
	}
	if c.reading {
		*r = rng.FromState(st)
		c.check(*r != nil, "invalid %s RNG state", what)
	}
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
		return nil, fmt.Errorf("scenario %s: resume: %w", sc.spec.Name, err)
	}
	payload, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: resume: %w", sc.spec.Name, err)
	}
	run, err := sc.loadCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%w (checkpoint %s)", err, path)
	}
	return run, nil
}

// loadCheckpoint decodes a verified checkpoint payload into a runnable
// state, enforcing the scenario binding, rebuilding the recounted values
// and running the full invariant audit. It
// never panics on corrupt input — every failure is a descriptive error
// (FuzzLoadCheckpoint hammers this contract).
func (sc Scenario) loadCheckpoint(payload []byte) (*scenarioRun, error) {
	fail := func(format string, args ...any) (*scenarioRun, error) {
		return nil, fmt.Errorf("scenario %s: resume: %s", sc.spec.Name, fmt.Sprintf(format, args...))
	}
	opt, _, _ := sc.startOptions()
	if err := opt.Validate(); err != nil {
		return fail("swarm.%v", err)
	}
	run := &scenarioRun{
		sc:       &sc,
		s:        &Swarm{opt: opt, edgeCap: int32(opt.MaxNeighbors)},
		faultsOn: !sc.spec.Faults.IsZero(),
	}
	err := readWalk(payload, func(c *codec) {
		run.walk(c, &run.start)
		c.check(c.remaining() == 0, "%d trailing bytes after the state", c.remaining())
	})
	if err != nil {
		return fail("%v", err)
	}
	if err := run.s.recount(true); err != nil {
		return fail("%v", err)
	}
	// The deep audit: structural invariants, counter recounts, edge
	// symmetry. A payload that decodes cleanly but describes an
	// inconsistent swarm dies here instead of corrupting a run.
	if err := run.s.CheckInvariants(); err != nil {
		return fail("restored state failed the invariant audit: %v", err)
	}
	run.classes = newClassBounds(run.s)
	run.resolveIntervals()
	return run, nil
}

// ResumeSpec reads the scenario spec embedded in a checkpoint (a file, or
// a directory whose newest checkpoint is used), so a resume can recompile
// the exact workload from the snapshot alone. It is the only way to
// recover a workload from a checkpoint file.
func ResumeSpec(path string) (ScenarioSpec, error) {
	resolved, err := resolveCheckpointPath(path)
	if err != nil {
		return ScenarioSpec{}, err
	}
	payload, err := checkpoint.ReadFile(resolved)
	if err != nil {
		return ScenarioSpec{}, err
	}
	var b binding
	if err := readWalk(payload, func(c *codec) { c.binding(&b) }); err != nil {
		return ScenarioSpec{}, fmt.Errorf("checkpoint: read %s: %v", resolved, err)
	}
	sp, err := ParseSpec(b.spec)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("checkpoint %s: embedded spec: %w", resolved, err)
	}
	return sp, nil
}

// Package btsim is a round-based BitTorrent swarm simulator: pieces and
// bitfields, rarest-first piece selection, Tit-for-Tat choking with an
// optimistic unchoke slot, and fair upload-capacity sharing.
//
// It is the empirical substrate for the paper's Section 6: the analytic
// model predicts stratification and share ratios from the stable-matching
// abstraction; the simulator lets us observe the same phenomena emerge from
// actual TFT protocol mechanics. The paper itself relies on external
// measurements (Bharambe et al.; Legout et al.) for this step — the
// simulator replaces those deployments.
//
// Simulation time advances in rounds of one second. Capacities are in
// kbit/s and pieces have a size in kbit, so a peer with capacity c uploads
// c kbit per round, split equally among its active (unchoked and
// interested) transfer partners.
//
// # Engine layout
//
// The stepping hot path is allocation-free, and the swarm supports dynamic
// membership: peers join through the tracker (Join/Announce) and leave with
// Depart at any round, so churn scenarios (see scenario.go) can run
// arbitrary arrival and departure processes.
//
// Identity and wiring are separate. The roster s.peers is append-only —
// peer ids are stable forever and departed peers keep their totals for the
// metrics. Connection state lives in fixed-stride CSR slots: a present peer
// occupies slot sl and its edges are e ∈ [sl·edgeCap, sl·edgeCap+deg[sl]),
// giving every peer edge-capacity headroom so joins and departures are
// O(degree) swap-updates instead of rebuilds. The id → slot map is its own
// array, slotOf, not a roster field: a 4-byte array entry is much cheaper
// to fetch than a whole roster entry. Code holding an edge index derives
// the slot from it instead (e / edgeCap). The per-draw and per-edge reads
// avoid the roster the same way: the tracker handout first tests a
// candidate's saturation bit in the present set (PresentSet), and the
// choke and send passes read a neighbor's dense wants-data flag. Departed
// peers' slots go on a free list and are recycled (grown by doubling only when
// the concurrent population exceeds all past peaks). rev[e] is the index of the opposite
// edge, maintained across joins, departures and swap-deletes so no step
// ever searches a neighbor list. Interest (want) and piece rarity (avail,
// indexed by slot) are maintained incrementally on piece completion, edge
// addition and edge removal instead of rescanning bitfields. Candidate and
// active lists used by the choking and transfer logic are preallocated
// scratch buffers sized to the per-slot edge capacity.
package btsim

import (
	"fmt"
	"math"

	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// Options configures a swarm. The struct is plain data and round-trips
// through JSON (the tags below are the ScenarioSpec wire names), so a
// swarm configuration can live in a serialized scenario description.
// Each field comment states its valid range; Validate holds every rule,
// and New, ScenarioSpec.Validate, checkpoint loads, the tracker daemon's
// handout policy and btswarm's fixed-swarm mode all check options through
// it.
type Options struct {
	// Leechers is the number of downloading peers: at least 1.
	Leechers int `json:"leechers"`
	// Seeds is the number of initial seeds: at least 0.
	Seeds int `json:"seeds,omitempty"`
	// Pieces is the number of pieces in the shared file: at least 1.
	Pieces int `json:"pieces"`
	// PieceKbit is the size of one piece in kbit: finite and above 0 (0
	// means 2048, a 256 KiB piece).
	PieceKbit float64 `json:"piece_kbit,omitempty"`
	// UploadKbps maps each peer (leechers first, then seeds) to its upload
	// capacity: one finite entry of at least 0 per peer. If nil, every
	// peer gets 400 kbps.
	UploadKbps []float64 `json:"upload_kbps,omitempty"`
	// TFTSlots is the number of Tit-for-Tat unchoke slots: from 1 to
	// MaxNeighbors (0 means the BitTorrent default of 3).
	TFTSlots int `json:"tft_slots,omitempty"`
	// OptimisticSlots is the number of optimistic unchoke slots. A peer
	// holds exactly one, as in BitTorrent, so it must be 0 or 1, and 0
	// means 1.
	OptimisticSlots int `json:"optimistic_slots,omitempty"`
	// ChokeIntervalRounds is how often the TFT slots are re-evaluated: at
	// least 1 (0 means BitTorrent's 10 s).
	ChokeIntervalRounds int `json:"choke_interval_rounds,omitempty"`
	// OptimisticIntervalRounds is how often the optimistic slot rotates:
	// at least 1 (0 means BitTorrent's 30 s).
	OptimisticIntervalRounds int `json:"optimistic_interval_rounds,omitempty"`
	// NeighborCount is the number of neighbors the tracker targets per peer
	// (the paper's d): Announce hands out peers until the announcer holds
	// this many connections. At least 1; 0 means 20.
	NeighborCount int `json:"neighbor_count,omitempty"`
	// MaxNeighbors caps a peer's degree (its CSR slot's edge capacity):
	// incoming introductions stop once a peer is this well-connected. 0
	// means 2·NeighborCount+8, mirroring the degree overshoot symmetric
	// wiring produces. Must be at least NeighborCount.
	MaxNeighbors int `json:"max_neighbors,omitempty"`
	// MaxPeers preallocates CSR slots for this many concurrent peers so
	// churn scenarios reach steady state without growth reallocation. At
	// least 0; 0 means the initial population; the swarm grows by
	// doubling beyond either value. ScenarioSpec.Compile replaces a zero
	// with an estimate of the arrival processes' expected peak.
	MaxPeers int `json:"max_peers,omitempty"`
	// PostFlashCrowd starts every leecher with each piece independently
	// with probability 1/2, making content availability a non-issue — the
	// paper's post-flash-crowd assumption. When false, leechers start
	// empty (flash crowd).
	PostFlashCrowd bool `json:"post_flash_crowd,omitempty"`
	// MetricsWarmupRounds excludes TFT partner decisions before this round
	// from the stratification metrics (the early intervals measure mixing
	// noise, not Tit-for-Tat preference). At least 0.
	MetricsWarmupRounds int `json:"metrics_warmup_rounds,omitempty"`
	// ContentUnlimited switches the swarm to the paper's Section 6 regime:
	// content availability is never a bottleneck, every leecher is always
	// interested in every peer, and nobody finishes — only bandwidth and
	// Tit-for-Tat matter. Piece bookkeeping is bypassed; rates and totals
	// are still metered, making it the steady-state stratification probe.
	ContentUnlimited bool `json:"content_unlimited,omitempty"`
	// Seed seeds the deterministic random source.
	Seed uint64 `json:"seed,omitempty"`
}

func (o *Options) withDefaults() Options {
	opt := *o
	if opt.TFTSlots == 0 {
		opt.TFTSlots = 3
	}
	if opt.OptimisticSlots == 0 {
		opt.OptimisticSlots = 1
	}
	if opt.ChokeIntervalRounds == 0 {
		opt.ChokeIntervalRounds = 10
	}
	if opt.OptimisticIntervalRounds == 0 {
		opt.OptimisticIntervalRounds = 30
	}
	if opt.NeighborCount == 0 {
		opt.NeighborCount = 20
	}
	if opt.MaxNeighbors == 0 {
		opt.MaxNeighbors = 2*opt.NeighborCount + 8
	}
	if opt.PieceKbit == 0 {
		opt.PieceKbit = 2048 // 256 KiB pieces
	}
	return opt
}

// Validate checks the options, with zero fields taking their defaults as
// in New, against every rule a swarm needs and reports the first violation
// as "<json field>: must be ..., got <value>". A nil UploadKbps passes its
// length rule. Callers prefix the error with their own context (New with
// "btsim:", ScenarioSpec.Validate with the spec name and "swarm.").
func (o Options) Validate() error {
	o = o.withDefaults()
	var err error
	rule := func(field, want string, bad bool, got any) {
		if bad && err == nil {
			err = fmt.Errorf("%s: must be %s, got %v", field, want, got)
		}
	}
	n := o.Leechers + o.Seeds
	rule("leechers", ">= 1", o.Leechers < 1, o.Leechers)
	rule("seeds", ">= 0", o.Seeds < 0, o.Seeds)
	rule("pieces", ">= 1", o.Pieces < 1, o.Pieces)
	rule("piece_kbit", "finite and > 0", !(o.PieceKbit > 0) || math.IsInf(o.PieceKbit, 1), o.PieceKbit)
	rule("max_peers", ">= 0", o.MaxPeers < 0, o.MaxPeers)
	rule("upload_kbps", fmt.Sprintf("one entry per peer (%d)", n), o.UploadKbps != nil && len(o.UploadKbps) != n, len(o.UploadKbps))
	rule("neighbor_count", ">= 1", o.NeighborCount < 1, o.NeighborCount)
	rule("max_neighbors", fmt.Sprintf(">= neighbor_count (%d)", o.NeighborCount), o.MaxNeighbors < o.NeighborCount, o.MaxNeighbors)
	rule("tft_slots", fmt.Sprintf("in [1, max_neighbors (%d)]", o.MaxNeighbors), o.TFTSlots < 1 || o.TFTSlots > o.MaxNeighbors, o.TFTSlots)
	rule("optimistic_slots", "0 or 1 (one optimistic unchoke)", o.OptimisticSlots != 1, o.OptimisticSlots)
	rule("choke_interval_rounds", ">= 1", o.ChokeIntervalRounds < 1, o.ChokeIntervalRounds)
	rule("optimistic_interval_rounds", ">= 1", o.OptimisticIntervalRounds < 1, o.OptimisticIntervalRounds)
	rule("metrics_warmup_rounds", ">= 0", o.MetricsWarmupRounds < 0, o.MetricsWarmupRounds)
	for i := 0; i < len(o.UploadKbps) && err == nil; i++ {
		if c := o.UploadKbps[i]; !(c >= 0) || math.IsInf(c, 1) {
			err = fmt.Errorf("upload_kbps[%d]: must be finite and >= 0, got %v", i, c)
		}
	}
	return err
}

// WithDefaults returns the handout policy a swarm with these two options
// would use: zero fields take the swarm defaults (NeighborCount 20,
// MaxNeighbors 2·NeighborCount+8), and the result is checked by the swarm
// options' validator, so the tracker daemon accepts exactly the policies a
// simulated swarm does.
func (hp HandoutPolicy) WithDefaults() (HandoutPolicy, error) {
	o := (&Options{Leechers: 1, Pieces: 1, TFTSlots: 1, NeighborCount: hp.NeighborCount, MaxNeighbors: hp.MaxNeighbors}).withDefaults()
	if err := o.Validate(); err != nil {
		return HandoutPolicy{}, fmt.Errorf("btsim: handout policy: %w", err)
	}
	return HandoutPolicy{NeighborCount: o.NeighborCount, MaxNeighbors: o.MaxNeighbors}, nil
}

// peer holds the per-peer scalar state. The roster is append-only: a peer
// keeps its id and statistics after departing. All per-connection and
// per-piece state lives in the Swarm's slot-indexed flat arrays (see the
// package comment).
type peer struct {
	id       int
	capacity float64
	isSeed   bool // joined as a seed: never downloads
	departed bool // left the swarm
	// joinRound / departRound delimit the peer's presence (departRound is
	// −1 while the peer is in the swarm).
	joinRound   int
	departRound int

	have      bitset
	haveCount int
	done      bool // has every piece (seed or finished leecher)
	doneRound int  // round at which the peer completed (-1 while leeching)

	// optimistic is the absolute edge index of the optimistic unchoke
	// (−1 if none).
	optimistic int32

	totalUp   float64
	totalDown float64
	// tftPartnerRankSum / tftPartnerCount accumulate the ranks of TFT
	// (non-optimistic) unchoke partners at each choke decision, for the
	// stratification metrics.
	tftPartnerRankSum float64
	tftPartnerCount   int
}

// Swarm is a running simulation. Create with New, advance with Run or Step,
// change membership with Join and Depart.
type Swarm struct {
	opt   Options
	peers []peer // roster: every peer that ever joined, by id
	r     *rng.RNG
	round int

	// rank[id] is the peer's bandwidth rank (0 = fastest) among the peers
	// currently present, maintained incrementally on joins and departures;
	// a departed peer keeps the rank it held when it left. The
	// stratification metrics compare partner ranks.
	rank []int

	// Slot-based CSR edge state. A present peer in slot sl owns edges
	// e ∈ [sl·edgeCap, sl·edgeCap+deg[sl]); nbr[e] is the target's peer id
	// and rev[e] the opposite edge's index.
	edgeCap   int32
	slotCap   int
	slotOf    []int32 // peer id → CSR slot while present, −1 after departing
	slotPeer  []int32 // slot → occupant peer id, −1 when free
	freeSlots []int32 // stack of free slots
	deg       []int32 // slot → current degree
	// due[sl] is slot sl's choke schedule, its occupant's id modulo the
	// choke and optimistic intervals (freeDue for a free slot), so the choke
	// pass finds the slots due this round without reading the roster.
	// New and Join set it with slotPeer, releaseSlot clears it, and a
	// checkpoint load rebuilds it (recount).
	due []duePhase

	nbr []int32
	rev []int32

	// recvWindow[e] is the kbit received along edge e during the current
	// choke interval; recvRate[e] is the rate measured over the previous
	// interval (the "last 10 seconds" of the TFT policy).
	recvWindow []float64
	recvRate   []float64
	// unchoked[e] reports whether the target of edge e currently holds one
	// of the owner's TFT slots.
	unchoked []bool
	// inflight[e] is the piece the owner of e currently streams from its
	// target (−1 when idle). Several connections may feed the same piece —
	// like BitTorrent's block-level parallel download — all contributing to
	// the shared pieceProgress, so overlap wastes nothing.
	inflight []int32
	// inflightCnt[sl*Pieces+p] counts the live edges of slot sl whose
	// inflight is p, so pickPiece tests a piece's in-flight state in O(1).
	// Every write to inflight keeps it; a checkpoint load rebuilds it
	// (recount).
	inflightCnt []int32
	// want[e] counts the pieces the target of e has that the owner lacks;
	// want[e] > 0 means the owner is interested in the target. Maintained
	// incrementally by completePiece, addEdge and removeEdgeHalf.
	want []int32

	// avail[sl*Pieces+p] counts how many neighbors of the peer in slot sl
	// have piece p (rarest-first input); pieceProgress[sl*Pieces+p] is the
	// accumulated kbit towards piece p.
	avail         []int32
	pieceProgress []float64

	// havePool recycles the piece bitfields of departed peers so steady
	// churn does not allocate.
	havePool []bitset

	counters

	// wantsData[id] caches wantsDataOf for every peer ever seen, one byte
	// per id. The choke pass and the active-list rebuild read it for each
	// neighbor, so they touch a dense array instead of a whole roster entry
	// per edge. newPeer, leave, completePiece and New's post-flash-crowd
	// branch keep it; a checkpoint load rebuilds it (recount).
	wantsData []bool

	// trk is the tracker's present set, with a saturation bit per present
	// peer that addEdge, removeEdgeHalf and releaseSlot keep equal to
	// deg == edgeCap (see PresentSet).
	trk PresentSet

	// flt is the fault-injection state (see faults.go); nil on a fault-free
	// swarm, and every fault hook hides behind that nil check so the
	// fault-free path is byte-identical to earlier versions.
	flt *faultState

	// tel is the optional telemetry recorder (see internal/telemetry); nil
	// when telemetry is off, and every hook is a nil-receiver no-op, so the
	// disabled path stays allocation-free and byte-identical. Telemetry only
	// ever reads the wall clock — never the RNG or simulation state — so
	// enabling it cannot change any simulation output.
	tel *telemetry.Recorder

	// Scratch buffers (sized to the per-slot edge capacity / piece count)
	// reused by every call on the stepping hot path — Step never allocates.
	// (The choke candidate buffers live per worker in sh.scratch.)
	active []int32

	// sh is the sharded, event-driven stepping state: shard geometry, the
	// per-shard RNG sub-streams, the per-slot active-transfer caches with
	// their xferDirty and sending bitmaps, and the optional persistent
	// worker pool (see shard.go).
	sh shardState

	// pendingJoin / rankOrder / joinSort back the batched join-rank flush
	// (see rank.go): joins park here with rank −1 until the next rank read.
	pendingJoin []int32
	rankOrder   []int32
	joinSort    joinSorter
}

// counters are the swarm's membership and degree counters, maintained
// incrementally so scenario time-series sampling never rescans or
// allocates. Each is a function of the roster and the degrees: a
// checkpoint load recounts them (recount) instead of reading them, and
// CheckInvariants compares them with the same recount.
type counters struct {
	// present includes promoted seeds; presentDone is the present peers
	// holding every piece (initial seeds + finished leechers that have not
	// departed).
	present       int
	presentDone   int
	totalDeparted int
	// completedLeechers counts leechers that ever finished the file
	// (departed ones included); liveDegSum is Σ deg over present peers (two
	// endpoints per edge).
	completedLeechers int
	liveDegSum        int64
}

// New builds a swarm. Peer ids 0..Leechers-1 are leechers,
// Leechers..Leechers+Seeds-1 are seeds.
func New(o Options) (*Swarm, error) {
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("btsim: %w", err)
	}
	opt := o.withDefaults()
	n := opt.Leechers + opt.Seeds
	s := &Swarm{opt: opt, r: rng.New(opt.Seed), peers: make([]peer, 0, n), rank: make([]int, 0, n), wantsData: make([]bool, 0, n)}
	for i := 0; i < n; i++ {
		capKbps := 400.0
		if opt.UploadKbps != nil {
			capKbps = opt.UploadKbps[i]
		}
		p := s.newPeer(capKbps, i >= opt.Leechers, newBitset(opt.Pieces))
		if p.isSeed || !opt.PostFlashCrowd {
			continue
		}
		for piece := 0; piece < opt.Pieces; piece++ {
			if s.r.Bool(0.5) {
				p.have.set(piece)
				p.haveCount++
			}
		}
		if p.haveCount == opt.Pieces {
			p.done = true
			p.doneRound = 0
			s.presentDone++
			s.completedLeechers++ // post-flash-crowd instant finisher
			s.wantsData[p.id] = s.wantsDataOf(p)
		}
	}

	// Slot arrays: the initial population occupies slots 0..n-1 (slot ==
	// id), the rest of the preallocation goes on the free stack.
	s.edgeCap = int32(opt.MaxNeighbors)
	s.slotCap = n
	if opt.MaxPeers > n {
		s.slotCap = opt.MaxPeers
	}
	s.slotPeer = make([]int32, s.slotCap)
	for sl := range s.slotPeer {
		s.slotPeer[sl] = -1
	}
	s.slotOf = make([]int32, n, s.slotCap)
	for i := 0; i < n; i++ {
		s.slotPeer[i] = int32(i)
		s.slotOf[i] = int32(i)
	}
	s.freeSlots = make([]int32, 0, s.slotCap)
	for sl := s.slotCap - 1; sl >= n; sl-- {
		s.freeSlots = append(s.freeSlots, int32(sl))
	}
	s.deg = make([]int32, s.slotCap)
	s.allocSlots()
	for i := 0; i < n; i++ {
		s.due[i] = s.duePhaseOf(int32(i))
	}

	// Initial wiring goes through the tracker, exactly like later joins:
	// every peer registers, then announces in id order, topping its
	// neighborhood up to NeighborCount (incoming introductions count).
	s.trk.pos = make([]int32, 0, n)
	s.trk.present = make([]int32, 0, n)
	s.trk.sat = make([]uint64, 0, bmWords(n))
	for i := 0; i < n; i++ {
		s.trk.Add(int32(i))
	}
	for i := 0; i < n; i++ {
		s.Announce(i)
	}
	s.flushJoinRanks()
	return s, nil
}

// allocSlots allocates zeroed CSR, piece and scratch storage for
// s.slotCap slots and sets up the shard layer. New and a checkpoint load
// both build a swarm's slot storage through it.
func (s *Swarm) allocSlots() {
	total := s.slotCap * int(s.edgeCap)
	s.nbr = make([]int32, total)
	s.rev = make([]int32, total)
	s.recvWindow = make([]float64, total)
	s.recvRate = make([]float64, total)
	s.unchoked = make([]bool, total)
	s.inflight = make([]int32, total)
	s.want = make([]int32, total)
	s.avail = make([]int32, s.slotCap*s.opt.Pieces)
	s.pieceProgress = make([]float64, s.slotCap*s.opt.Pieces)
	s.inflightCnt = make([]int32, s.slotCap*s.opt.Pieces)
	s.due = make([]duePhase, s.slotCap)
	for sl := range s.due {
		s.due[sl] = freeDue
	}

	s.active = make([]int32, s.edgeCap)
	s.rankOrder = make([]int32, s.slotCap)
	s.joinSort.s = s
	s.initShards()
}

// edges returns the live edge range [base, end) of a present peer.
func (s *Swarm) edges(id int) (base, end int32) {
	sl := s.slotOf[id]
	base = sl * s.edgeCap
	return base, base + s.deg[sl]
}

// SetTelemetry attaches a telemetry recorder to the swarm (nil detaches).
// Recording only reads the wall clock, so attaching a recorder never
// perturbs RNG streams or simulation outputs.
func (s *Swarm) SetTelemetry(tel *telemetry.Recorder) { s.tel = tel }

// Present returns the number of peers currently in the swarm.
func (s *Swarm) Present() int { return s.present }

// PresentSeeds returns the present peers holding the complete file:
// initial seeds plus leechers promoted on completion.
func (s *Swarm) PresentSeeds() int { return s.presentDone }

// Join adds a new peer mid-simulation: it takes a recycled (or new) CSR
// slot, registers with the tracker, and announces to receive an initial
// neighbor handout. A seed joins with the full piece set; a leecher joins
// empty (newcomers have nothing — the post-flash-crowd head start only
// applies to the initial population). The new peer's id is returned.
func (s *Swarm) Join(capacityKbps float64, asSeed bool) int {
	sl := s.allocSlot()
	var bs bitset
	if k := len(s.havePool); k > 0 {
		bs = s.havePool[k-1]
		s.havePool = s.havePool[:k-1]
		bs.clear()
	} else {
		bs = newBitset(s.opt.Pieces)
	}
	id := s.newPeer(capacityKbps, asSeed, bs).id
	s.slotOf = append(s.slotOf, sl)
	s.slotPeer[sl] = int32(id)
	s.due[sl] = s.duePhaseOf(int32(id))
	if s.flt != nil {
		s.flt.slotJoined(sl)
	}
	s.tel.Inc(telemetry.CtrJoins)
	s.trk.Add(int32(id))
	s.Announce(id)
	return id
}

// newPeer appends a peer holding the empty bitfield have to the roster,
// with every piece if it is a seed, and counts it present. Its rank is
// deferred: it parks on the pending list with rank −1 and the batch merges
// in before the next rank read (see rank.go), so New ranks its initial
// population and a flash-crowd round its k arrivals in one
// O(present + k·log k) flush.
func (s *Swarm) newPeer(capKbps float64, asSeed bool, have bitset) *peer {
	id := len(s.peers)
	s.peers = append(s.peers, peer{
		id:          id,
		capacity:    capKbps,
		have:        have,
		isSeed:      asSeed,
		optimistic:  -1,
		doneRound:   -1,
		departRound: -1,
		joinRound:   s.round,
	})
	p := &s.peers[id]
	if asSeed {
		p.have.setAll()
		p.haveCount = s.opt.Pieces
		p.done = true
		p.doneRound = s.round
		s.presentDone++
	}
	s.present++
	s.wantsData = append(s.wantsData, !asSeed)
	s.rank = append(s.rank, -1)
	s.pendingJoin = append(s.pendingJoin, int32(id))
	return p
}

// allocSlot pops a free CSR slot, doubling the slot arrays when the
// concurrent population exceeds every past peak.
func (s *Swarm) allocSlot() int32 {
	if len(s.freeSlots) == 0 {
		s.grow()
	}
	sl := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	return sl
}

// grown copies a into a fresh zero-tailed slice of length n.
func grown[T any](a []T, n int) []T {
	b := make([]T, n)
	copy(b, a)
	return b
}

// grow doubles the slot capacity. Edge indices are preserved: the stride
// edgeCap is fixed, so existing blocks copy verbatim and rev stays valid.
func (s *Swarm) grow() {
	old := s.slotCap
	s.slotCap *= 2
	total := s.slotCap * int(s.edgeCap)

	s.nbr = grown(s.nbr, total)
	s.rev = grown(s.rev, total)
	s.inflight = grown(s.inflight, total)
	s.want = grown(s.want, total)
	s.recvWindow = grown(s.recvWindow, total)
	s.recvRate = grown(s.recvRate, total)
	s.unchoked = grown(s.unchoked, total)

	s.avail = grown(s.avail, s.slotCap*s.opt.Pieces)
	s.pieceProgress = grown(s.pieceProgress, s.slotCap*s.opt.Pieces)
	s.inflightCnt = grown(s.inflightCnt, s.slotCap*s.opt.Pieces)

	s.deg = grown(s.deg, s.slotCap)
	s.slotPeer = grown(s.slotPeer, s.slotCap)
	s.due = grown(s.due, s.slotCap)
	for sl := old; sl < s.slotCap; sl++ {
		s.slotPeer[sl] = -1
		s.due[sl] = freeDue
	}
	for sl := s.slotCap - 1; sl >= old; sl-- {
		s.freeSlots = append(s.freeSlots, int32(sl))
	}
	if s.flt != nil {
		s.flt.growFaults(s.slotCap)
	}
	s.rankOrder = grown(s.rankOrder, s.slotCap)
	s.resizeShards()
}

// addEdge wires a symmetric connection between two present peers, seeding
// the per-edge transfer state and the incremental interest and availability
// counters. Callers guarantee headroom on both sides and no existing edge.
// A new edge starts choked and is nobody's optimistic pick, so neither
// end's active-transfer list changes.
func (s *Swarm) addEdge(a, b *peer) {
	asl, bsl := s.slotOf[a.id], s.slotOf[b.id]
	ea := asl*s.edgeCap + s.deg[asl]
	eb := bsl*s.edgeCap + s.deg[bsl]
	s.nbr[ea], s.nbr[eb] = int32(b.id), int32(a.id)
	s.rev[ea], s.rev[eb] = eb, ea
	s.recvWindow[ea], s.recvWindow[eb] = 0, 0
	s.recvRate[ea], s.recvRate[eb] = 0, 0
	s.unchoked[ea], s.unchoked[eb] = false, false
	s.inflight[ea], s.inflight[eb] = -1, -1
	s.want[ea] = int32(a.have.countMissingIn(b.have))
	s.want[eb] = int32(b.have.countMissingIn(a.have))
	s.availAdd(asl, b.have)
	s.availAdd(bsl, a.have)
	s.deg[asl]++
	s.deg[bsl]++
	if s.deg[asl] == s.edgeCap {
		s.trk.SetSaturated(int32(a.id), true)
	}
	if s.deg[bsl] == s.edgeCap {
		s.trk.SetSaturated(int32(b.id), true)
	}
	s.liveDegSum += 2
}

// removeEdgeHalf deletes edge er from q's block by swapping the block's
// last edge into its place and fixing the moved edge's reverse pointer (and
// q's optimistic slot, if it referenced either edge). er's in-flight piece
// leaves q's in-flight counts; the moved edge's stays in the same slot.
// q's active-transfer list changes only if it held er or the moved edge.
func (s *Swarm) removeEdgeHalf(q *peer, er int32) {
	qsl := s.slotOf[q.id]
	last := qsl*s.edgeCap + s.deg[qsl] - 1
	if s.unchoked[er] || s.unchoked[last] || q.optimistic == er || q.optimistic == last {
		s.markActiveStale(qsl)
	}
	if q.optimistic == er {
		q.optimistic = -1
	}
	if piece := s.inflight[er]; piece >= 0 {
		s.inflightCnt[int(qsl)*s.opt.Pieces+int(piece)]--
	}
	if er != last {
		s.nbr[er] = s.nbr[last]
		s.rev[er] = s.rev[last]
		s.recvWindow[er] = s.recvWindow[last]
		s.recvRate[er] = s.recvRate[last]
		s.unchoked[er] = s.unchoked[last]
		s.inflight[er] = s.inflight[last]
		s.want[er] = s.want[last]
		s.rev[s.rev[last]] = er
		if q.optimistic == last {
			q.optimistic = er
		}
	}
	if s.deg[qsl] == s.edgeCap {
		s.trk.SetSaturated(int32(q.id), false)
	}
	s.deg[qsl]--
	// liveDegSum tracks present peers only; a crashed peer's halves left
	// the sum when it crashed, so unwiring them later must not re-subtract.
	if !q.departed {
		s.liveDegSum--
	}
}

// edgeTo returns peer a's edge to peer b, or −1 when they are not
// connected.
func (s *Swarm) edgeTo(a, b int32) int32 {
	asl := s.slotOf[a]
	base := asl * s.edgeCap
	for e := base; e < base+s.deg[asl]; e++ {
		if s.nbr[e] == b {
			return e
		}
	}
	return -1
}

// availAdd counts b's pieces into slot sl's availability.
func (s *Swarm) availAdd(sl int32, b bitset) { b.addTo(s.availRow(int(sl)), 1) }

// availSub removes b's pieces from slot sl's availability.
func (s *Swarm) availSub(sl int32, b bitset) { b.addTo(s.availRow(int(sl)), -1) }

// availRow is slot sl's availability row, one counter per piece.
func (s *Swarm) availRow(sl int) []int32 {
	return s.avail[sl*s.opt.Pieces : (sl+1)*s.opt.Pieces]
}

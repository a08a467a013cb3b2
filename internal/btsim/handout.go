package btsim

import "stratmatch/internal/rng"

// HandoutState is the tracker-side view the neighbor handout policy samples
// from: a present set supporting uniform indexing, with each position's
// saturation bit, plus the degree, reachability and wiring operations on
// peer ids. Swarm implements it over its CSR slot arrays (see
// swarmHandout); the service registry in internal/trackerd implements it
// over per-swarm adjacency lists. Both keep their present peers and
// saturation bits in one PresentSet and feed the same HandoutPolicy, so a
// served announce draws the exact RNG sequence an in-sim announce would.
type HandoutState interface {
	// PresentPeers is the set of currently registered peers (any fixed
	// order; the policy samples indices uniformly). Its saturation bits
	// must mark exactly the present peers whose degree is at the policy's
	// MaxNeighbors.
	PresentPeers() *PresentSet
	// DegreeOf returns a present peer's current connection count.
	DegreeOf(id int32) int
	// SameSide reports whether the tracker may introduce a to b (false
	// only while a network partition separates them).
	SameSide(a, b int32) bool
	// Connected reports whether a and b are already neighbors.
	Connected(a, b int32) bool
	// Connect wires a symmetric connection between a and b, setting either
	// side's saturation bit when its degree reaches the cap. The policy
	// guarantees a != b, headroom on both sides and no existing edge.
	Connect(a, b int32)
}

// HandoutPolicy is the tracker's seed-deterministic neighbor handout: the
// rejection-sampling selection loop extracted from Swarm.Announce so the
// in-sim tracker and the trackerd service registry share one policy.
// Handout consumes randomness only through r.Intn on the present count, in
// a fixed draw order, so two states exposing identical present sequences
// produce identical neighbor sets from identical RNG streams.
type HandoutPolicy struct {
	// NeighborCount is the degree the announcer is topped up to (incoming
	// introductions count towards it).
	NeighborCount int
	// MaxNeighbors caps any peer's degree: saturated candidates are
	// skipped and the announcer stops once it reaches the cap.
	MaxNeighbors int
}

// Handout hands peer id uniformly random present peers until it holds
// NeighborCount connections, skipping the announcer itself, unreachable
// (partitioned-off) peers, existing neighbors and peers at the degree cap.
// The attempt budget bounds rejection sampling in saturated swarms; the
// number of connections added is returned.
//
// Every rejection is a plain continue, so the order of the checks does not
// change the draw sequence. The saturation bit comes first: in a crowded
// swarm most draws land on a peer at the cap, and the bit rejects them
// without loading the candidate's id, slot or degree.
func (hp HandoutPolicy) Handout(st HandoutState, r *rng.RNG, id int32) int {
	ps := st.PresentPeers()
	present := ps.PresentCount() // Handout adds and removes no peer
	deg := st.DegreeOf(id)       // only Connect below changes it
	need := hp.NeighborCount - deg
	// Every neighbor is present, so the announcer can add at most the
	// present peers it is not yet connected to — without this cap a peer
	// in a drained swarm would burn its whole attempt budget every
	// re-announce chasing an unreachable target.
	if achievable := present - 1 - deg; need > achievable {
		need = achievable
	}
	if need <= 0 {
		return 0
	}
	added := 0
	// Rejection sampling with a bounded attempt budget: when most of the
	// swarm is already saturated the announcer settles for fewer neighbors
	// and retries at its next re-announce instead of spinning.
	for attempts := 16*need + 16; need > 0 && attempts > 0 && deg < hp.MaxNeighbors; attempts-- {
		i := r.Intn(present)
		if ps.SaturatedAt(i) {
			continue
		}
		cand := ps.PresentAt(i)
		if cand == id {
			continue
		}
		if !st.SameSide(id, cand) {
			continue // the tracker cannot reach across an active partition
		}
		if st.Connected(id, cand) {
			continue
		}
		st.Connect(id, cand)
		deg++
		added++
		need--
	}
	return added
}

// swarmHandout adapts a Swarm to HandoutState. It is a type alias-style
// view over the same memory ((*swarmHandout)(s) is free), so delegating the
// announce loop through the shared policy adds no allocation.
type swarmHandout Swarm

func (h *swarmHandout) PresentPeers() *PresentSet { return &h.trk }
func (h *swarmHandout) DegreeOf(id int32) int     { return int(h.deg[h.slotOf[id]]) }

func (h *swarmHandout) SameSide(a, b int32) bool {
	if f := h.flt; f != nil && f.partitionOn {
		return f.side[h.slotOf[b]] == f.side[h.slotOf[a]]
	}
	return true
}

func (h *swarmHandout) Connected(a, b int32) bool {
	return (*Swarm)(h).edgeTo(a, b) >= 0
}

func (h *swarmHandout) Connect(a, b int32) {
	s := (*Swarm)(h)
	s.addEdge(&s.peers[a], &s.peers[b])
}

// Neighbors appends the ids of a present peer's current connections to dst
// and returns it (unchanged for departed or out-of-range ids). The order is
// CSR block order — wiring-history dependent — so callers comparing
// neighbor sets should sort.
func (s *Swarm) Neighbors(dst []int32, id int) []int32 {
	if id < 0 || id >= len(s.peers) || s.peers[id].departed || s.slotOf[id] < 0 {
		return dst
	}
	base, end := s.edges(id)
	return append(dst, s.nbr[base:end]...)
}

package btsim

import "stratmatch/internal/telemetry"

// PresentSet is a tracker's set of present peer ids: O(1) Add and Remove
// (swap-delete) and index access for the handout policy's uniform draws.
// The swarm's tracker and the trackerd service registry both keep their
// present peers in one, so the same add/remove sequence yields the same
// present order — and with it the same handout draws.
//
// Beside each present position it keeps a saturation bit: the peer at that
// position has reached the degree cap. The handout tests it right after a
// draw, before it loads anything else, so a rejected draw — most of them in
// a saturated swarm — reads one word of a dense bitmap instead of following
// the id to its slot and degree. The owner keeps the bit (SetSaturated)
// whenever a degree reaches or leaves the cap; Add and Remove keep it with
// its position. The bit is derived state: a checkpoint does not save it, and
// a load rebuilds it from the degrees.
type PresentSet struct {
	present []int32  // present ids, swap-delete order
	pos     []int32  // id → index in present, −1 when absent
	sat     []uint64 // bit i: present[i] is at the degree cap
}

// Add appends id to the present set with its saturation bit clear. id must
// be absent.
func (ps *PresentSet) Add(id int32) {
	for len(ps.pos) <= int(id) {
		ps.pos = append(ps.pos, -1)
	}
	i := len(ps.present)
	ps.pos[id] = int32(i)
	ps.present = append(ps.present, id)
	if i>>6 == len(ps.sat) {
		ps.sat = append(ps.sat, 0)
	}
	bmClear(ps.sat, i)
}

// Remove swap-deletes id from the present set: the last present id takes
// its index and carries its saturation bit along. id must be present.
func (ps *PresentSet) Remove(id int32) {
	i := int(ps.pos[id])
	last := len(ps.present) - 1
	moved := ps.present[last]
	ps.present[i] = moved
	ps.pos[moved] = int32(i)
	ps.setSatAt(i, bmGet(ps.sat, last))
	bmClear(ps.sat, last)
	ps.present = ps.present[:last]
	ps.pos[id] = -1
}

// SetSaturated records whether present peer id has reached the degree cap;
// it is a no-op for an absent id (a crashed peer keeps its edges, and its
// degree, after it leaves the present set).
func (ps *PresentSet) SetSaturated(id int32, on bool) {
	if int(id) < len(ps.pos) && ps.pos[id] >= 0 {
		ps.setSatAt(int(ps.pos[id]), on)
	}
}

func (ps *PresentSet) setSatAt(i int, on bool) {
	if on {
		bmSet(ps.sat, i)
	} else {
		bmClear(ps.sat, i)
	}
}

// PresentCount and PresentAt give index access to the present ids, and
// SaturatedAt to their saturation bits (see HandoutPolicy.Handout).
func (ps *PresentSet) PresentCount() int      { return len(ps.present) }
func (ps *PresentSet) PresentAt(i int) int32  { return ps.present[i] }
func (ps *PresentSet) SaturatedAt(i int) bool { return bmGet(ps.sat, i) }

// Announce asks the tracker for neighbors: it hands peer id uniformly
// random present peers until the announcer holds NeighborCount connections
// (incoming introductions count towards the target), skipping itself,
// existing neighbors, and peers already at their MaxNeighbors degree cap.
// Introductions are symmetric — both sides learn each other, like a real
// tracker response followed by a handshake. The number of connections added
// is returned. Announce is a no-op for departed or out-of-range ids.
//
// With the fault layer armed, an announce fails outright during a tracker
// outage (consuming no randomness) and is dropped with the current loss
// probability otherwise; failures schedule a jittered exponential-backoff
// retry (see faultState.announceFailed). While a partition is active the
// handout only introduces peers on the announcer's side.
func (s *Swarm) Announce(id int) int {
	if id < 0 || id >= len(s.peers) || s.peers[id].departed {
		return 0
	}
	sl := s.slotOf[id]
	if sl < 0 {
		// The peer's slot has been recycled out from under it — a stale
		// re-announce replayed across a checkpoint/resume boundary can do
		// this. Touching the CSR arrays would read another occupant's block,
		// so the announce is a guarded no-op instead.
		return 0
	}
	s.tel.Inc(telemetry.CtrAnnounces)
	if f := s.flt; f != nil {
		if f.trackerDown || (f.lossRate > 0 && f.r.Bool(f.lossRate)) {
			f.announceFailed(sl, s.round)
			s.tel.Inc(telemetry.CtrAnnounceFailures)
			return 0
		}
		f.announceOK(sl)
	}
	// The selection loop itself is the shared HandoutPolicy (handout.go):
	// the trackerd service registry runs the identical policy, so served
	// handouts match in-sim ones draw for draw.
	hp := HandoutPolicy{NeighborCount: s.opt.NeighborCount, MaxNeighbors: s.opt.MaxNeighbors}
	added := hp.Handout((*swarmHandout)(s), s.r, int32(id))
	s.tel.Add(telemetry.CtrAnnounceEdges, added)
	return added
}

// ReannounceUnderConnected lets present peers whose degree fell below the
// tracker target (departures eat neighborhoods) re-announce for a fresh
// handout. Peers are staggered by id over the interval — each call only
// processes ids scheduled for the current round, like independent client
// announce timers; interval <= 1 processes every under-connected peer. The
// total number of connections added is returned.
func (s *Swarm) ReannounceUnderConnected(interval int) int {
	target := s.opt.NeighborCount
	if max := len(s.trk.present) - 1; target > max {
		target = max // a drained swarm cannot offer more neighbors
	}
	added := 0
	for i := 0; i < len(s.trk.present); i++ {
		id := int(s.trk.present[i])
		if interval > 1 && (s.round+id)%interval != 0 {
			continue
		}
		sl := s.slotOf[id]
		if sl < 0 {
			continue // slot recycled under a stale registry entry; see Announce
		}
		if f := s.flt; f != nil && f.retryAt[sl] >= 0 {
			continue // in announce backoff; the retry pass owns the schedule
		}
		if int(s.deg[sl]) < target {
			added += s.Announce(id)
		}
	}
	return added
}

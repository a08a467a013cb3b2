package btsim

import "stratmatch/internal/telemetry"

// PresentSet is a tracker's set of present peer ids: O(1) Add and Remove
// (swap-delete) and index access for the handout policy's uniform draws.
// The swarm's tracker and the trackerd service registry both keep their
// present peers in one, so the same add/remove sequence yields the same
// present order — and with it the same handout draws.
type PresentSet struct {
	present []int32 // present ids, swap-delete order
	pos     []int32 // id → index in present, −1 when absent
}

// Add appends id to the present set. id must be absent.
func (ps *PresentSet) Add(id int32) {
	for len(ps.pos) <= int(id) {
		ps.pos = append(ps.pos, -1)
	}
	ps.pos[id] = int32(len(ps.present))
	ps.present = append(ps.present, id)
}

// Remove swap-deletes id from the present set: the last present id takes
// its index. id must be present.
func (ps *PresentSet) Remove(id int32) {
	i := ps.pos[id]
	last := int32(len(ps.present) - 1)
	moved := ps.present[last]
	ps.present[i] = moved
	ps.pos[moved] = i
	ps.present = ps.present[:last]
	ps.pos[id] = -1
}

// PresentCount and PresentAt give the handout policy its index access
// (see HandoutState).
func (ps *PresentSet) PresentCount() int     { return len(ps.present) }
func (ps *PresentSet) PresentAt(i int) int32 { return ps.present[i] }

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

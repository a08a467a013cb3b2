package btsim

import "sort"

// Batched bandwidth-rank maintenance. Join used to insert the newcomer's
// rank immediately with two O(present) passes, which made a flash-crowd
// round with k arrivals cost O(k·present) — the dominant term at a million
// peers. Nothing reads ranks between consecutive Joins (the tracker
// handout looks at degrees and capacities, never ranks), so newPeer only
// parks the newcomer on a pending list with rank −1 and flushJoinRanks
// merges the whole batch in O(present + k·log k) before the next rank
// read. New ranks its initial population the same way, with one flush of
// n pending peers before it returns. Every rank consumer flushes first:
// Step (the TFT accounting), leave (the shift loop), applyDepartures (the
// rank-biased abandonment draw), sampling, Snapshot, CheckInvariants and
// checkpoint encoding — so a pending rank of −1 is never observable.
//
// The merge is exactly equivalent to sequential insertion: present ranks
// always form the position permutation of the present set ordered by
// (capacity desc, id asc), so inserting a sorted batch assigns pending
// peer w the position (#old present better than w) + (#pending better
// than w), and shifts each old peer down by the number of pending peers
// placed before it.

// joinSorter sorts the pending-join id list by the rank key. It lives in
// the Swarm so sort.Sort receives a pointer interface without allocating.
type joinSorter struct{ s *Swarm }

func (j *joinSorter) Len() int { return len(j.s.pendingJoin) }
func (j *joinSorter) Less(a, b int) bool {
	pa, pb := &j.s.peers[j.s.pendingJoin[a]], &j.s.peers[j.s.pendingJoin[b]]
	return pa.capacity > pb.capacity || (pa.capacity == pb.capacity && pa.id < pb.id)
}
func (j *joinSorter) Swap(a, b int) {
	p := j.s.pendingJoin
	p[a], p[b] = p[b], p[a]
}

// flushJoinRanks assigns ranks to every pending join and shifts the old
// present ranks accordingly. No-op when nothing is pending.
func (s *Swarm) flushJoinRanks() {
	k := len(s.pendingJoin)
	if k == 0 {
		return
	}
	if k > 1 {
		sort.Sort(&s.joinSort)
	}
	// Invert the old present ranks into position order. Pending peers are
	// registered but still rank −1, so they are excluded by the r >= 0
	// filter; everything else present has a valid old rank < old.
	old := s.present - k
	ro := s.rankOrder
	for _, id := range s.trk.present {
		if r := s.rank[id]; r >= 0 {
			ro[r] = id
		}
	}
	pi := 0
	for r := 0; r < old; r++ {
		id := ro[r]
		q := &s.peers[id]
		for pi < k {
			w := &s.peers[s.pendingJoin[pi]]
			if !(w.capacity > q.capacity || (w.capacity == q.capacity && w.id < q.id)) {
				break
			}
			s.rank[w.id] = r + pi
			pi++
		}
		if pi > 0 {
			s.rank[id] = r + pi
		}
	}
	for ; pi < k; pi++ {
		s.rank[s.pendingJoin[pi]] = old + pi
	}
	s.pendingJoin = s.pendingJoin[:0]
}

// shiftRanksAbove moves every present peer ranked below a leaver's rank pr
// up one (leave).
func (s *Swarm) shiftRanksAbove(pr int) {
	for _, j := range s.trk.present {
		if s.rank[j] > pr {
			s.rank[j]--
		}
	}
}

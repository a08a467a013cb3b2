package btsim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/rng"
)

// unlimitedPostFlashPin is the sha256 of the %#v Snapshot that
// TestContentUnlimitedPostFlashCrowdPinned ends with.
const unlimitedPostFlashPin = "e204f641c0b2d808d139a4d1638580e93ba77fd7624bea72fabebc3aed397922"

// TestContentUnlimitedPostFlashCrowdPinned pins the bytes of a
// content-unlimited swarm whose initial leechers start post-flash-crowd.
// With two pieces about a quarter of them start with the whole file: they
// are done but not seeds, and in this mode a non-seed always wants data,
// so they go on downloading (the run asserts that some do). The swarm runs
// on 64-slot shards at two workers, with joins, departs and re-announces,
// and a degree cap two above the tracker target, so the handout rejects
// saturated candidates throughout. CheckInvariants audits it every 25
// rounds.
func TestContentUnlimitedPostFlashCrowdPinned(t *testing.T) {
	const leechers, seeds = 90, 3
	caps := bandwidth.RankBandwidths(bandwidth.Saroiu(), leechers+seeds)
	perm := rng.New(60).Perm(len(caps))
	shuffled := make([]float64, len(caps))
	for i, src := range perm {
		shuffled[i] = caps[src]
	}
	s, err := New(Options{
		Leechers: leechers, Seeds: seeds, Pieces: 2,
		ContentUnlimited: true, PostFlashCrowd: true,
		UploadKbps: shuffled, NeighborCount: 8, MaxNeighbors: 10,
		MaxPeers: 160, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.setShardSlots(64)
	s.SetStepWorkers(2)
	defer s.Close()
	r := rng.New(62)
	for round := 0; round < 300; round++ {
		if r.Bool(0.3) {
			s.Join(caps[r.Intn(len(caps))], r.Bool(0.1))
		}
		s.Step()
		if r.Bool(0.2) && s.Present() > 10 {
			s.Depart(int(s.trk.present[r.Intn(len(s.trk.present))]))
		}
		s.ReannounceUnderConnected(10)
		if round%25 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	m := s.Snapshot()
	downloading := 0
	for _, p := range m.Peers {
		if !p.IsSeed && p.Done && p.DoneRound == 0 && p.TotalDown > 0 {
			downloading++
		}
	}
	if downloading == 0 {
		t.Fatal("no leecher started complete and went on downloading")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", m)))); got != unlimitedPostFlashPin {
		t.Fatalf("snapshot sha256 %s, pinned %s (%d complete starters downloaded)", got, unlimitedPostFlashPin, downloading)
	}
}

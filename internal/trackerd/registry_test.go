package trackerd

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"stratmatch/internal/btsim"
)

func key(id int) string { return fmt.Sprintf("peer-%d", id) }

// TestRegistryMatchesSwarm is the tentpole property: for the same derived
// seed and the same register/announce/depart sequence, the standalone
// registry hands out exactly the neighbor sets the in-sim tracker builds —
// the two run the shared btsim.HandoutPolicy over identically-ordered
// present sets, so every uniform index draw lands on the same id.
//
// The sparse case uses the default cap (24 for d = 8), which candidates
// almost never reach. The saturated cases set the cap at or just above d,
// so most present peers sit at it, most draws are rejected by the
// saturation bit, and each departure takes its neighbors back below the
// cap: both bitmap transitions are compared draw for draw.
func TestRegistryMatchesSwarm(t *testing.T) {
	for _, tc := range []struct {
		name                string
		leechers, maxNbrs   int
		rounds, departEvery int
		minSaturated        float64 // share of present peers at the cap at the end
	}{
		{name: "sparse", leechers: 60, rounds: 25, departEvery: 3},
		{name: "cap=d", leechers: 200, maxNbrs: 8, rounds: 40, departEvery: 1, minSaturated: 0.5},
		{name: "cap=d+1", leechers: 200, maxNbrs: 9, rounds: 40, departEvery: 1, minSaturated: 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			registryMatchesSwarm(t, tc.leechers, tc.maxNbrs, tc.rounds, tc.departEvery, tc.minSaturated)
		})
	}
}

func registryMatchesSwarm(t *testing.T, leechers, maxNbrs, rounds, departEvery int, minSaturated float64) {
	const (
		name      = "prop"
		baseSeed  = uint64(42)
		seeds     = 4
		neighbors = 8
	)
	n := leechers + seeds

	// Reference: the simulator seeded exactly as the registry derives this
	// swarm's stream. PostFlashCrowd=false keeps the swarm RNG consumed by
	// announces only, so the streams cannot drift between compared ops.
	s, err := btsim.New(btsim.Options{
		Leechers:       leechers,
		Seeds:          seeds,
		Pieces:         16,
		PostFlashCrowd: false,
		NeighborCount:  neighbors,
		MaxNeighbors:   maxNbrs,
		Seed:           swarmSeed(baseSeed, name),
	})
	if err != nil {
		t.Fatal(err)
	}

	g := mustRegistry(t, RegistryConfig{
		Seed:   baseSeed,
		Policy: btsim.HandoutPolicy{NeighborCount: neighbors, MaxNeighbors: maxNbrs},
	})
	// Mirror btsim.New's bootstrap: register the whole initial population,
	// then announce each id in order. (Registry.Announce registers and
	// announces in one step — the mid-run Join path — so the bootstrap
	// drives the internal ops directly.)
	rs := g.swarm(name)
	for i := 0; i < n; i++ {
		rs.register(key(i))
	}
	for i := 0; i < n; i++ {
		rs.announce(g.cfg.Policy, int32(i))
	}

	live := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		live[i] = true
	}
	compare := func(stage string) {
		t.Helper()
		var buf []int32
		for id := range live {
			buf = s.Neighbors(buf[:0], id)
			sim := append([]int32(nil), buf...)
			sort.Slice(sim, func(a, b int) bool { return sim[a] < sim[b] })
			reg := g.Neighbors(name, key(id))
			if len(sim) == 0 && len(reg) == 0 {
				continue
			}
			if !reflect.DeepEqual(sim, reg) {
				t.Fatalf("%s: peer %d neighbor sets diverge:\n  sim %v\n  reg %v", stage, id, sim, reg)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	compare("bootstrap")

	// Mixed churn: departures, joins (sim Join == registry Announce of an
	// unknown key: register + handout), and re-announces, in lockstep. Both
	// sides assign ids in arrival order, so id k is the same peer in each.
	next := n
	for round := 0; round < rounds; round++ {
		if round%departEvery == 0 {
			// Depart the lowest live id: exercises present-set swap-delete
			// and edge unwiring on both sides.
			low := -1
			for id := range live {
				if low < 0 || id < low {
					low = id
				}
			}
			s.Depart(low)
			if !g.Stop(name, key(low)) {
				t.Fatalf("round %d: Stop(%q) = false for live peer", round, key(low))
			}
			delete(live, low)
		}
		for j := 0; j < 2; j++ {
			id := s.Join(400, false)
			if id != next {
				t.Fatalf("round %d: sim Join id %d, want %d", round, id, next)
			}
			res := g.Announce(name, key(next))
			if int(res.ID) != next {
				t.Fatalf("round %d: registry id %d, want %d", round, res.ID, next)
			}
			live[next] = true
			next++
		}
		// Re-announce a couple of live ids (deterministic pick: the two
		// highest), topping their neighborhoods back up.
		var ids []int
		for id := range live {
			ids = append(ids, id)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for _, id := range ids[:2] {
			simAdded := s.Announce(id)
			regAdded := g.Announce(name, key(id)).Added
			if simAdded != regAdded {
				t.Fatalf("round %d: re-announce %d added %d (sim) vs %d (registry)", round, id, simAdded, regAdded)
			}
		}
		compare(fmt.Sprintf("round %d", round))
	}

	if minSaturated > 0 {
		capped := 0
		for id := range live {
			if len(s.Neighbors(nil, id)) == maxNbrs {
				capped++
			}
		}
		if share := float64(capped) / float64(len(live)); share < minSaturated {
			t.Fatalf("%.2f of present peers at the cap, want at least %.2f", share, minSaturated)
		}
	}
}

func TestRegistryRecycledKeyAndDoubleDepart(t *testing.T) {
	g := mustRegistry(t, RegistryConfig{Seed: 7})
	a := g.Announce("sw", "a")
	b := g.Announce("sw", "b")
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("ids = %d, %d; want 0, 1", a.ID, b.ID)
	}
	if b.Added != 1 || len(b.Peers) != 1 || b.Peers[0] != "a" {
		t.Fatalf("b's handout = %+v; want the single other peer", b)
	}

	if !g.Stop("sw", "a") {
		t.Fatal("Stop of live key = false")
	}
	if g.Stop("sw", "a") {
		t.Fatal("double Stop = true; want no-op")
	}
	if g.Stop("sw", "ghost") {
		t.Fatal("Stop of unknown key = true")
	}
	if nbrs := g.Neighbors("sw", "a"); nbrs != nil {
		t.Fatalf("departed key still resolves: %v", nbrs)
	}
	// b's edge to the departed peer must have been unwired.
	if nbrs := g.Neighbors("sw", "b"); len(nbrs) != 0 {
		t.Fatalf("b still wired to departed peer: %v", nbrs)
	}

	// The key re-announcing is a fresh roster entry, not slot 0 resurrected.
	a2 := g.Announce("sw", "a")
	if a2.ID != 2 {
		t.Fatalf("recycled key id = %d; want fresh roster entry 2", a2.ID)
	}
	if len(a2.Peers) != 1 || a2.Peers[0] != "b" {
		t.Fatalf("recycled key handout = %v; want [b]", a2.Peers)
	}

	ent, ok := g.Scrape("sw")
	if !ok {
		t.Fatal("Scrape of known swarm = !ok")
	}
	want := ScrapeEntry{Swarm: "sw", Present: 2, TotalJoined: 3, Departed: 1, Edges: 1, Announces: 3}
	if ent != want {
		t.Fatalf("scrape = %+v; want %+v", ent, want)
	}
	if _, ok := g.Scrape("ghost-swarm"); ok {
		t.Fatal("Scrape of unknown swarm = ok")
	}
}

// TestRegistryDeterministicReplay pins that a fixed op sequence replays to
// identical wiring on a fresh registry — the serving-side determinism that
// makes daemon handouts reproducible for a given announce order.
func TestRegistryDeterministicReplay(t *testing.T) {
	replay := func() *Registry {
		g := mustRegistry(t, RegistryConfig{Seed: 99, Policy: btsim.HandoutPolicy{NeighborCount: 4}})
		for i := 0; i < 40; i++ {
			g.Announce("sw", key(i))
		}
		for i := 0; i < 40; i += 5 {
			g.Stop("sw", key(i))
		}
		for i := 0; i < 40; i += 3 {
			g.Announce("sw", key(i)) // mix of re-announces and rejoins
		}
		return g
	}
	g1, g2 := replay(), replay()
	for i := 0; i < 40; i++ {
		n1, n2 := g1.Neighbors("sw", key(i)), g2.Neighbors("sw", key(i))
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("peer %d: replay diverged: %v vs %v", i, n1, n2)
		}
	}
	e1, _ := g1.Scrape("sw")
	e2, _ := g2.Scrape("sw")
	if e1 != e2 {
		t.Fatalf("scrape diverged: %+v vs %+v", e1, e2)
	}
}

// TestRegistryConcurrency hammers announce/stop/scrape from many goroutines
// across a handful of swarms; run under -race it pins the locking scheme,
// and the closing invariants catch lost updates.
func TestRegistryConcurrency(t *testing.T) {
	g := mustRegistry(t, RegistryConfig{Seed: 1, Policy: btsim.HandoutPolicy{NeighborCount: 6}})
	swarms := []string{"alpha", "beta", "gamma", "delta"}
	const workers = 8
	const opsPerWorker = 400

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				sw := swarms[(w+i)%len(swarms)]
				k := fmt.Sprintf("w%d-%d", w, i%50)
				switch i % 7 {
				case 5:
					g.Stop(sw, k)
				case 6:
					if i%2 == 0 {
						g.Scrape(sw)
					} else {
						g.ScrapeAll()
					}
				default:
					g.Announce(sw, k)
					g.Neighbors(sw, k)
				}
			}
		}(w)
	}
	wg.Wait()

	entries := g.ScrapeAll()
	if len(entries) != len(swarms) {
		t.Fatalf("ScrapeAll returned %d swarms; want %d", len(entries), len(swarms))
	}
	var totalAnnounces uint64
	for _, e := range entries {
		if e.Present+e.Departed != e.TotalJoined {
			t.Fatalf("%s: present %d + departed %d != joined %d", e.Swarm, e.Present, e.Departed, e.TotalJoined)
		}
		if e.Edges < 0 {
			t.Fatalf("%s: negative edge count %d", e.Swarm, e.Edges)
		}
		totalAnnounces += e.Announces
	}
	if totalAnnounces == 0 {
		t.Fatal("no announces recorded")
	}
	// Symmetric wiring: every live peer's neighbor list must link back.
	for _, sw := range swarms {
		rs := g.swarm(sw)
		rs.mu.Lock()
		for i := 0; i < rs.PresentCount(); i++ {
			id := rs.PresentAt(i)
			for _, nb := range rs.nbrs[id] {
				if !rs.Connected(nb, id) {
					t.Errorf("%s: %d->%d edge has no reverse half", sw, id, nb)
				}
			}
		}
		rs.mu.Unlock()
	}
}

func mustRegistry(t *testing.T, cfg RegistryConfig) *Registry {
	t.Helper()
	g, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRegistryPolicyValidated: the registry takes its default handout
// policy from btsim, and rejects a policy a simulated swarm would reject
// with the swarm validator's error, which names the option.
func TestRegistryPolicyValidated(t *testing.T) {
	if got := mustRegistry(t, RegistryConfig{}).cfg.Policy; got != (btsim.HandoutPolicy{NeighborCount: 20, MaxNeighbors: 48}) {
		t.Errorf("default policy %+v, want d=20 and cap 48", got)
	}
	for _, tc := range []struct {
		policy btsim.HandoutPolicy
		want   string
	}{
		{btsim.HandoutPolicy{NeighborCount: -5}, "neighbor_count: must be >= 1, got -5"},
		{btsim.HandoutPolicy{NeighborCount: 10, MaxNeighbors: 4}, "max_neighbors: must be >= neighbor_count (10), got 4"},
		{btsim.HandoutPolicy{MaxNeighbors: -1}, "max_neighbors"},
	} {
		if _, err := NewRegistry(RegistryConfig{Policy: tc.policy}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("policy %+v: error %v, want %q", tc.policy, err, tc.want)
		}
	}
}

// Neighbors returns the sorted neighbor ids of a live peer key (nil when
// the key is unknown).
func (g *Registry) Neighbors(swarm, peerKey string) []int32 {
	rs := g.swarm(swarm)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	id, ok := rs.byKey[peerKey]
	if !ok {
		return nil
	}
	out := append([]int32(nil), rs.nbrs[id]...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

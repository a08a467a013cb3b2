// Package trackerd is the tracker-as-a-service layer: a standalone,
// concurrent announce/scrape registry running the simulator's exact
// neighbor-handout policy, and an HTTP daemon serving it alongside a
// run-submission API that streams scenario results over the jsonl wire
// format.
//
// The registry is the serving twin of the in-sim tracker (btsim/tracker.go):
// same append-only roster discipline, the same btsim.PresentSet, the same
// seed-deterministic btsim.HandoutPolicy selection loop — so for identical
// announce sequences and the same seed it hands out identical neighbor
// sets, a property pinned by TestRegistryMatchesSwarm.
package trackerd

import (
	"hash/fnv"
	"sort"
	"sync"

	"stratmatch/internal/btsim"
	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// registryShards is the shard count of the swarm-name map. Announces to
// different swarms contend only on a shard's read lock; announces within
// one swarm serialize on that swarm's own mutex, which is what keeps a
// swarm's handout sequence deterministic under concurrent clients.
const registryShards = 16

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// Seed is the base seed; each swarm's RNG derives from it and the
	// swarm name (see swarmSeed), so distinct swarms draw independent
	// streams and a swarm's handouts replay for a fixed announce sequence.
	Seed uint64
	// Policy is the neighbor handout policy. Zero fields take the
	// simulator's defaults (see btsim.HandoutPolicy.WithDefaults).
	Policy btsim.HandoutPolicy
	// Telemetry is the optional runtime recorder (nil: no-op).
	Telemetry *telemetry.Recorder
}

// Registry is the concurrent tracker state: swarm name → per-swarm
// registration, sharded by name hash.
type Registry struct {
	cfg    RegistryConfig
	shards [registryShards]registryShard
}

type registryShard struct {
	mu     sync.RWMutex
	swarms map[string]*regSwarm
}

// regSwarm is one swarm's registration state, matching the in-sim tracker
// exactly where determinism depends on it: the roster (keys) is
// append-only — a peer that stops and announces again is a new id, like the
// simulator's roster — and the present set is the simulator's own
// btsim.PresentSet, so the uniform index draws of the shared handout policy
// land on the same ids. Wiring is symmetric adjacency lists; removal
// swap-deletes, matching the sim's CSR edge-half removal (list order never
// feeds the RNG). Connect and depart keep each present peer's saturation
// bit equal to "its list holds maxNbrs entries", as the handout requires.
type regSwarm struct {
	mu      sync.Mutex
	name    string
	r       *rng.RNG
	maxNbrs int // the policy's degree cap

	btsim.PresentSet // present ids and their saturation bits

	byKey    map[string]int32 // live peer key → id
	keys     []string         // id → key (append-only roster)
	departed []bool
	nbrs     [][]int32

	announces uint64 // served announces (scrape stat)
	edges     int64  // live symmetric connections
}

// NewRegistry builds an empty registry. It fails when the handout policy
// is one no simulated swarm accepts (see btsim.HandoutPolicy.WithDefaults).
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	var err error
	if cfg.Policy, err = cfg.Policy.WithDefaults(); err != nil {
		return nil, err
	}
	g := &Registry{cfg: cfg}
	for i := range g.shards {
		g.shards[i].swarms = make(map[string]*regSwarm)
	}
	return g, nil
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// swarmSeed derives a swarm's RNG seed from the registry seed and the swarm
// name. The property test replays it to seed the reference btsim.Swarm.
func swarmSeed(base uint64, name string) uint64 { return base ^ fnv64(name) }

// swarm returns the named swarm's state, creating it on first contact.
func (g *Registry) swarm(name string) *regSwarm {
	sh := &g.shards[fnv64(name)%registryShards]
	sh.mu.RLock()
	rs := sh.swarms[name]
	sh.mu.RUnlock()
	if rs != nil {
		return rs
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rs = sh.swarms[name]; rs == nil {
		rs = &regSwarm{
			name:    name,
			r:       rng.New(swarmSeed(g.cfg.Seed, name)),
			maxNbrs: g.cfg.Policy.MaxNeighbors,
			byKey:   make(map[string]int32),
		}
		sh.swarms[name] = rs
	}
	return rs
}

// regSwarm implements btsim.HandoutState. All methods run under rs.mu.

func (rs *regSwarm) PresentPeers() *btsim.PresentSet { return &rs.PresentSet }
func (rs *regSwarm) DegreeOf(id int32) int           { return len(rs.nbrs[id]) }
func (rs *regSwarm) SameSide(a, b int32) bool        { return true }
func (rs *regSwarm) Connect(a, b int32) {
	rs.nbrs[a] = append(rs.nbrs[a], b)
	rs.nbrs[b] = append(rs.nbrs[b], a)
	rs.edges++
	if len(rs.nbrs[a]) == rs.maxNbrs {
		rs.SetSaturated(a, true)
	}
	if len(rs.nbrs[b]) == rs.maxNbrs {
		rs.SetSaturated(b, true)
	}
}

func (rs *regSwarm) Connected(a, b int32) bool {
	for _, n := range rs.nbrs[a] {
		if n == b {
			return true
		}
	}
	return false
}

// register adds a new roster entry for key and puts it in the present set.
// Caller holds rs.mu and has checked the key is not live.
func (rs *regSwarm) register(key string) int32 {
	id := int32(len(rs.keys))
	rs.keys = append(rs.keys, key)
	rs.departed = append(rs.departed, false)
	rs.nbrs = append(rs.nbrs, nil)
	rs.Add(id)
	rs.byKey[key] = id
	return id
}

// announce runs the shared handout policy for id. Caller holds rs.mu.
func (rs *regSwarm) announce(hp btsim.HandoutPolicy, id int32) int {
	if id < 0 || int(id) >= len(rs.keys) || rs.departed[id] {
		return 0
	}
	rs.announces++
	return hp.Handout(rs, rs.r, id)
}

// depart removes id: unwire every connection (swap-delete on the far
// side's list, mirroring the sim's edge-half removal), leave the present
// set, and retire the roster entry. Double departs are no-ops, like the
// sim's. Caller holds rs.mu.
func (rs *regSwarm) depart(id int32) bool {
	if id < 0 || int(id) >= len(rs.keys) || rs.departed[id] {
		return false
	}
	for _, nb := range rs.nbrs[id] {
		l := rs.nbrs[nb]
		for i, n := range l {
			if n == id {
				if len(l) == rs.maxNbrs {
					rs.SetSaturated(nb, false)
				}
				l[i] = l[len(l)-1]
				rs.nbrs[nb] = l[:len(l)-1]
				break
			}
		}
	}
	rs.edges -= int64(len(rs.nbrs[id]))
	rs.nbrs[id] = nil
	rs.departed[id] = true
	rs.Remove(id)
	delete(rs.byKey, rs.keys[id])
	return true
}

// AnnounceResult is one served announce: the peer's id in the swarm roster,
// the connections this handout added, and the peer's full current neighbor
// key list (the tracker response).
type AnnounceResult struct {
	Swarm string   `json:"swarm"`
	Peer  string   `json:"peer"`
	ID    int32    `json:"id"`
	Added int      `json:"added"`
	Peers []string `json:"peers"`
}

// Announce serves one announce: an unknown (or previously stopped) peer key
// registers as a fresh roster entry, then receives a neighbor handout from
// the shared policy. Re-announces of a live key top its neighborhood back
// up to the target. Announces within one swarm serialize; distinct swarms
// proceed concurrently.
func (g *Registry) Announce(swarm, peerKey string) AnnounceResult {
	tel := g.cfg.Telemetry
	tel.Inc(telemetry.CtrServeAnnounces)
	rs := g.swarm(swarm)
	span := tel.StartPhase(telemetry.PhaseHandout)
	rs.mu.Lock()
	id, ok := rs.byKey[peerKey]
	if !ok {
		id = rs.register(peerKey)
	}
	added := rs.announce(g.cfg.Policy, id)
	peers := make([]string, len(rs.nbrs[id]))
	for i, nb := range rs.nbrs[id] {
		peers[i] = rs.keys[nb]
	}
	rs.mu.Unlock()
	tel.EndPhase(telemetry.PhaseHandout, span)
	return AnnounceResult{Swarm: swarm, Peer: peerKey, ID: id, Added: added, Peers: peers}
}

// Stop serves an event=stopped announce: the peer leaves the swarm and its
// connections are unwired. It reports whether the key was live (stopping an
// unknown or already-stopped key is a no-op, mirroring the sim's guarded
// double-depart).
func (g *Registry) Stop(swarm, peerKey string) bool {
	g.cfg.Telemetry.Inc(telemetry.CtrServeAnnounces)
	rs := g.swarm(swarm)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	id, ok := rs.byKey[peerKey]
	if !ok {
		return false
	}
	return rs.depart(id)
}

// ScrapeEntry is one swarm's scrape statistics.
type ScrapeEntry struct {
	Swarm       string `json:"swarm"`
	Present     int    `json:"present"`
	TotalJoined int    `json:"total_joined"`
	Departed    int    `json:"departed"`
	Edges       int64  `json:"edges"`
	Announces   uint64 `json:"announces"`
}

func (rs *regSwarm) scrape() ScrapeEntry {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return ScrapeEntry{
		Swarm:       rs.name,
		Present:     rs.PresentCount(),
		TotalJoined: len(rs.keys),
		Departed:    len(rs.keys) - rs.PresentCount(),
		Edges:       rs.edges,
		Announces:   rs.announces,
	}
}

// Scrape returns one swarm's statistics (false if the registry has never
// seen the name).
func (g *Registry) Scrape(swarm string) (ScrapeEntry, bool) {
	g.cfg.Telemetry.Inc(telemetry.CtrServeScrapes)
	sh := &g.shards[fnv64(swarm)%registryShards]
	sh.mu.RLock()
	rs := sh.swarms[swarm]
	sh.mu.RUnlock()
	if rs == nil {
		return ScrapeEntry{}, false
	}
	return rs.scrape(), true
}

// ScrapeAll returns every known swarm's statistics, name-sorted.
func (g *Registry) ScrapeAll() []ScrapeEntry {
	g.cfg.Telemetry.Inc(telemetry.CtrServeScrapes)
	var out []ScrapeEntry
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		swarms := make([]*regSwarm, 0, len(sh.swarms))
		for _, rs := range sh.swarms {
			swarms = append(swarms, rs)
		}
		sh.mu.RUnlock()
		for _, rs := range swarms {
			out = append(out, rs.scrape())
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Swarm < out[b].Swarm })
	return out
}

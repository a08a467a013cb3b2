package stratmatch_test

import (
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"stratmatch"
)

// Build an acceptance network, compute the unique stable matching,
// inspect clustering, and watch decentralized initiatives converge to the
// same matching.
func Example() {
	// 1. Twelve peers, everybody acceptable to everybody, two
	//    collaboration slots each. Peer 0 is the best peer (rank order is
	//    identity: think of it as sorted by upload bandwidth).
	nw, err := stratmatch.NewCompleteNetwork(12, 2)
	if err != nil {
		log.Fatal(err)
	}
	m := nw.Stable()
	fmt.Println("Stable matching on the complete network (b0 = 2):")
	for p := 0; p < nw.N(); p++ {
		fmt.Printf("  peer %2d collaborates with %v\n", p, m.Mates(p))
	}
	rep := m.Clusters()
	fmt.Printf("clusters: %d components, mean size %.1f, MMO %.2f\n",
		rep.Components, rep.MeanClusterSize, rep.MMO)
	fmt.Println("-> disjoint triangles: the clustering of the paper's Figure 4")

	// 2. Give the best peer one extra slot: the graph becomes connected
	//    (Figure 5).
	if err := nw.SetBudget(0, 3); err != nil {
		log.Fatal(err)
	}
	m3 := nw.Stable()
	rep = m3.Clusters()
	fmt.Printf("\nAfter one extra slot for peer 0: %d component(s), max size %d, distance %.3f\n",
		rep.Components, rep.MaxClusterSize, m3.DistanceTo(m))

	// 3. On a random acceptance graph, decentralized initiatives reach the
	//    same unique stable matching (Theorem 1).
	rnd, err := stratmatch.NewRandomNetwork(500, 10, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := rnd.Simulate(stratmatch.BestMate, 42)
	if err != nil {
		log.Fatal(err)
	}
	traj := sim.Run(15, 1)
	fmt.Println("\nDecentralized convergence on G(500, d=10), 1-matching:")
	for _, pt := range traj {
		if int(pt.Time)%3 == 0 {
			fmt.Printf("  t=%4.1f initiatives/peer  disorder %.4f\n", pt.Time, pt.Disorder)
		}
	}
	fmt.Printf("converged: %v\n", sim.Converged())
	// Output:
	// Stable matching on the complete network (b0 = 2):
	//   peer  0 collaborates with [1 2]
	//   peer  1 collaborates with [0 2]
	//   peer  2 collaborates with [0 1]
	//   peer  3 collaborates with [4 5]
	//   peer  4 collaborates with [3 5]
	//   peer  5 collaborates with [3 4]
	//   peer  6 collaborates with [7 8]
	//   peer  7 collaborates with [6 8]
	//   peer  8 collaborates with [6 7]
	//   peer  9 collaborates with [10 11]
	//   peer 10 collaborates with [9 11]
	//   peer 11 collaborates with [9 10]
	// clusters: 4 components, mean size 3.0, MMO 1.67
	// -> disjoint triangles: the clustering of the paper's Figure 4
	//
	// After one extra slot for peer 0: 1 component(s), max size 12, distance 0.178
	//
	// Decentralized convergence on G(500, d=10), 1-matching:
	//   t= 0.0 initiatives/peer  disorder 0.9845
	//   t= 3.0 initiatives/peer  disorder 0.1267
	//   t= 6.0 initiatives/peer  disorder 0.0285
	//   t= 9.0 initiatives/peer  disorder 0.0000
	//   t=12.0 initiatives/peer  disorder 0.0000
	//   t=15.0 initiatives/peer  disorder 0.0000
	// converged: true
}

// The stratification model beyond file sharing. Players have ELO ratings
// (the paper's example of an intrinsic global score) and a few weekly game
// slots; everyone wants the strongest opponents who will still play them.
// The stable matching splits the ladder into rating bands — de-facto clubs
// — and variable slot counts merge neighbouring clubs while keeping games
// between near-equals (stratification).
func ExampleRankByScore() {
	// Ratings for 24 players (not sorted: RankByScore handles that).
	ratings := []float64{
		1510, 2380, 1720, 1905, 2210, 1230, 2705, 1998,
		1405, 2120, 1830, 2450, 1610, 2010, 1150, 2600,
		1315, 1875, 2305, 1695, 2055, 1450, 2500, 1780,
	}
	rankOf, peerAt := stratmatch.RankByScore(ratings)

	// Everyone is willing to play everyone; three game slots per week.
	nw, err := stratmatch.NewCompleteNetwork(len(ratings), 3)
	if err != nil {
		log.Fatal(err)
	}
	m := nw.Stable()
	rep := m.Clusters()
	fmt.Printf("Uniform 3 slots: %d clubs of %0.f players each, MMO %.2f\n",
		rep.Components, rep.MeanClusterSize, rep.MMO)
	for rank := 0; rank < len(ratings); rank++ {
		player := peerAt[rank]
		var opponents []float64
		for _, mateRank := range m.Mates(rank) {
			opponents = append(opponents, ratings[peerAt[mateRank]])
		}
		fmt.Printf("  #%2d  ELO %4.0f  plays vs %v\n", rank+1, ratings[player], opponents)
	}

	// Stronger players take more games (variable budgets): clubs merge,
	// but pairings stay between near-equals. Budgets are indexed by rank,
	// the network's peer identity.
	byRank := make([]int, len(ratings))
	for player, rating := range ratings {
		b := 2
		if rating > 1800 {
			b = 3
		}
		if rating > 2300 {
			b = 4
		}
		byRank[rankOf[player]] = b
	}
	if err := nw.SetBudgets(byRank); err != nil {
		log.Fatal(err)
	}
	rep = nw.Stable().Clusters()
	fmt.Printf("\nVariable slots (2..4 by strength): %d club(s), max size %d, MMO %.2f\n",
		rep.Components, rep.MaxClusterSize, rep.MMO)
	fmt.Println("-> fewer, larger clubs, but every game is still between near-equals:")
	fmt.Println("   stratification is intrinsic to best-partner preferences, not to BitTorrent")
	// Output:
	// Uniform 3 slots: 6 clubs of 4 players each, MMO 2.50
	//   # 1  ELO 2705  plays vs [2600 2500 2450]
	//   # 2  ELO 2600  plays vs [2705 2500 2450]
	//   # 3  ELO 2500  plays vs [2705 2600 2450]
	//   # 4  ELO 2450  plays vs [2705 2600 2500]
	//   # 5  ELO 2380  plays vs [2305 2210 2120]
	//   # 6  ELO 2305  plays vs [2380 2210 2120]
	//   # 7  ELO 2210  plays vs [2380 2305 2120]
	//   # 8  ELO 2120  plays vs [2380 2305 2210]
	//   # 9  ELO 2055  plays vs [2010 1998 1905]
	//   #10  ELO 2010  plays vs [2055 1998 1905]
	//   #11  ELO 1998  plays vs [2055 2010 1905]
	//   #12  ELO 1905  plays vs [2055 2010 1998]
	//   #13  ELO 1875  plays vs [1830 1780 1720]
	//   #14  ELO 1830  plays vs [1875 1780 1720]
	//   #15  ELO 1780  plays vs [1875 1830 1720]
	//   #16  ELO 1720  plays vs [1875 1830 1780]
	//   #17  ELO 1695  plays vs [1610 1510 1450]
	//   #18  ELO 1610  plays vs [1695 1510 1450]
	//   #19  ELO 1510  plays vs [1695 1610 1450]
	//   #20  ELO 1450  plays vs [1695 1610 1510]
	//   #21  ELO 1405  plays vs [1315 1230 1150]
	//   #22  ELO 1315  plays vs [1405 1230 1150]
	//   #23  ELO 1230  plays vs [1405 1315 1150]
	//   #24  ELO 1150  plays vs [1405 1315 1230]
	//
	// Variable slots (2..4 by strength): 5 club(s), max size 11, MMO 2.25
	// -> fewer, larger clubs, but every game is still between near-equals:
	//    stratification is intrinsic to best-partner preferences, not to BitTorrent
}

// Predict per-peer share ratios with the paper's analytic model (Figure
// 11), then run a full Tit-for-Tat swarm simulation and observe the same
// stratification emerge from protocol mechanics.
func ExampleShareRatios() {
	const (
		peers = 600
		b0    = 3  // BitTorrent's default 4 slots = 3 TFT + 1 optimistic
		d     = 20 // expected acceptable peers
	)
	dist := stratmatch.SaroiuBandwidth()

	// --- Analytic prediction (paper Section 6 / Figure 11) ---
	pts, err := stratmatch.ShareRatios(peers, b0, d, dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Analytic expected D/U ratio by bandwidth class:")
	fmt.Println("  rank range   upload(kbps)      efficiency")
	for _, lo := range []int{0, peers / 4, peers / 2, 3 * peers / 4, peers - peers/20} {
		hi := lo + peers/20
		var up, eff float64
		for _, pt := range pts[lo:hi] {
			up += pt.Upload
			eff += pt.Efficiency
		}
		k := float64(hi - lo)
		fmt.Printf("  %4d-%-6d %12.0f %15.3f\n", lo+1, hi, up/k, eff/k)
	}
	fmt.Println("-> best peers subsidize the swarm (ratio < 1); worst peers profit")

	// --- Swarm simulation (content-unlimited regime) ---
	caps := make([]float64, peers)
	for i := range caps {
		caps[i] = dist.Quantile(1 - (float64(i)+0.5)/peers)
	}
	sw, err := stratmatch.NewSwarm(stratmatch.SwarmOptions{
		Leechers:            peers,
		Pieces:              1,
		ContentUnlimited:    true,
		UploadKbps:          caps,
		NeighborCount:       d,
		MetricsWarmupRounds: 600,
		Seed:                7,
	})
	if err != nil {
		log.Fatal(err)
	}
	sw.Run(1800)
	m := sw.Metrics()
	fmt.Printf("\nSwarm simulation (%d peers, %d rounds):\n", peers, sw.Round())
	fmt.Printf("  stratification correlation (rank vs TFT-partner rank): %.3f\n",
		m.StratCorrelation)
	fmt.Printf("  normalized mean rank offset: %.3f\n", m.MeanAbsRankOffset)

	var topRatio, botRatio, nTop, nBot float64
	for _, pm := range m.Peers {
		if math.IsNaN(pm.ShareRatio) {
			continue
		}
		switch {
		case pm.Rank < peers/10:
			topRatio += pm.ShareRatio
			nTop++
		case pm.Rank >= peers-peers/10:
			botRatio += pm.ShareRatio
			nBot++
		}
	}
	fmt.Printf("  measured share ratio: top decile %.3f, bottom decile %.3f\n",
		topRatio/nTop, botRatio/nBot)
	fmt.Println("-> Tit-for-Tat reproduces the matching model's stratification")
	// Output:
	// Analytic expected D/U ratio by bandwidth class:
	//   rank range   upload(kbps)      efficiency
	//      1-30            43732           0.517
	//    151-180             757           3.256
	//    301-330             219           1.327
	//    451-480              85           1.137
	//    571-600              25           2.336
	// -> best peers subsidize the swarm (ratio < 1); worst peers profit
	//
	// Swarm simulation (600 peers, 1800 rounds):
	//   stratification correlation (rank vs TFT-partner rank): 0.926
	//   normalized mean rank offset: 0.117
	//   measured share ratio: top decile 1.342, bottom decile 26.196
	// -> Tit-for-Tat reproduces the matching model's stratification
}

// watcher implements stratmatch.ScenarioObserver: it prints a live
// population bar every printEvery samples and keeps only scalar
// aggregates — no series is ever materialized.
type watcher struct {
	printEvery int
	seen       int
	peak       stratmatch.ScenarioPoint
	last       stratmatch.ScenarioPoint
	peakStale  int
}

func (w *watcher) OnSample(pt stratmatch.ScenarioPoint) {
	if pt.Present > w.peak.Present {
		w.peak = pt
	}
	if pt.StaleEdges > w.peakStale {
		w.peakStale = pt.StaleEdges
	}
	w.last = pt
	w.seen++
	if w.seen%w.printEvery != 1 {
		return
	}
	bar := strings.Repeat("#", pt.Present/2)
	fmt.Printf("  round %4d  present %3d (%3d leech / %3d seed)  %s\n",
		pt.Round, pt.Present, pt.Leechers, pt.Seeds, bar)
}

func (w *watcher) OnEvent(ev stratmatch.ScenarioEvent) {
	switch ev.Kind {
	case "shock", "crash":
		fmt.Printf("  round %4d  ** %s: %d peers gone **\n", ev.Round, ev.Kind, ev.Departed)
	case "partition":
		fmt.Printf("  round %4d  ** partition: %d connections severed **\n", ev.Round, ev.Edges)
	default: // tracker_down, tracker_up, partition_heal, drained
		fmt.Printf("  round %4d  ** %s **\n", ev.Round, ev.Kind)
	}
}

func (w *watcher) OnDone(m stratmatch.SwarmMetrics) {
	fmt.Printf("\nDone after %d rounds: %d peers ever joined, %d completed the file,\n",
		m.Round, len(m.Peers), m.CompletedLeechers)
	fmt.Printf("%d still present; peak population %d at round %d.\n",
		m.Present, w.peak.Present, w.peak.Round)
	// Capacity-biased abandonment (abandon_rank_bias in the spec) should
	// have culled mostly slow peers mid-download.
	var quit, quitCap, stay, stayCap float64
	for _, pm := range m.Peers {
		if pm.IsSeed {
			continue
		}
		if pm.Departed && !pm.Done {
			quit++
			quitCap += pm.Capacity
		} else {
			stay++
			stayCap += pm.Capacity
		}
	}
	if quit > 0 && stay > 0 {
		fmt.Printf("Abandonment was capacity-biased: %0.f quitters averaged %.0f kbps,\n"+
			"the %0.f completers/stayers %.0f kbps.\n", quit, quitCap/quit, stay, stayCap/stay)
	}
	if m.TotalCrashed > 0 || w.last.AnnounceFailures > 0 {
		fmt.Printf("Faults: %d crash-stop failures (peak %d stale connections awaiting\n"+
			"detection, %d at the end); %d announces lost, %d backoff retries fired.\n",
			m.TotalCrashed, w.peakStale, w.last.StaleEdges,
			w.last.AnnounceFailures, w.last.AnnounceRetries)
	}
}

// Declarative scenario specs and streaming observers. A workload — Poisson
// arrivals plus a mid-run flash burst, capacity-biased abandonment, a
// scheduled mass departure, a tracker outage and a crash-stop failure wave
// — is described entirely in a JSON spec file, compiled into a runnable
// scenario, and consumed through the streaming observer: the run samples
// every round, yet the observer holds O(1) series memory because it
// aggregates in place instead of materializing the series.
func ExampleScenarioObserver() {
	const src = "testdata/churn_spec.json"
	data, err := os.ReadFile(src)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := stratmatch.ParseScenarioSpec(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Scenario %q (%s): %d rounds, %d arrival processes, %d scheduled events.\n",
		spec.Name, src, spec.Rounds, len(spec.Arrivals), len(spec.Events))
	if spec.HasFaults() {
		fmt.Printf("Fault injection armed: %d scheduled faults.\n", len(spec.Faults.Injections))
	}
	if spec.Swarm.MaxPeers == 0 {
		fmt.Printf("max_peers unset: compiling with an estimated peak of %d concurrent peers.\n",
			spec.MaxPeersEstimate())
	}
	fmt.Println()

	sc, err := spec.Compile()
	if err != nil {
		log.Fatal(err)
	}
	var obs stratmatch.ScenarioObserver = &watcher{printEvery: 60}
	if err := sc.RunObserver(obs); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Scenario "example-mixed" (testdata/churn_spec.json): 900 rounds, 2 arrival processes, 1 scheduled events.
	// Fault injection armed: 2 scheduled faults.
	// max_peers unset: compiling with an estimated peak of 217 concurrent peers.
	//
	//   round    1  present  22 ( 20 leech /   2 seed)  ###########
	//   round   61  present  29 (  0 leech /  29 seed)  ##############
	//   round  121  present  36 (  0 leech /  36 seed)  ##################
	//   round  150  ** tracker_down **
	//   round  181  present  11 (  2 leech /   9 seed)  #####
	//   round  230  ** tracker_up **
	//   round  241  present  14 ( 12 leech /   2 seed)  #######
	//   round  301  present  20 (  1 leech /  19 seed)  ##########
	//   round  361  present  91 (  0 leech /  91 seed)  #############################################
	//   round  400  ** crash: 1 peers gone **
	//   round  401  ** crash: 1 peers gone **
	//   round  404  ** crash: 1 peers gone **
	//   round  405  ** crash: 1 peers gone **
	//   round  409  ** crash: 1 peers gone **
	//   round  410  ** crash: 1 peers gone **
	//   round  417  ** crash: 1 peers gone **
	//   round  421  present  74 (  0 leech /  74 seed)  #####################################
	//   round  423  ** crash: 1 peers gone **
	//   round  424  ** crash: 2 peers gone **
	//   round  427  ** crash: 1 peers gone **
	//   round  446  ** crash: 1 peers gone **
	//   round  468  ** crash: 1 peers gone **
	//   round  481  present  12 (  1 leech /  11 seed)  ######
	//   round  500  ** crash: 1 peers gone **
	//   round  541  present  14 (  1 leech /  13 seed)  #######
	//   round  600  ** shock: 7 peers gone **
	//   round  601  present  13 (  0 leech /  13 seed)  ######
	//   round  661  present  24 (  2 leech /  22 seed)  ############
	//   round  721  present  24 (  1 leech /  23 seed)  ############
	//   round  781  present  25 (  1 leech /  24 seed)  ############
	//   round  841  present  26 (  2 leech /  24 seed)  #############
	//
	// Done after 900 rounds: 216 peers ever joined, 207 completed the file,
	// 24 still present; peak population 93 at round 366.
	// Abandonment was capacity-biased: 5 quitters averaged 565 kbps,
	// the 209 completers/stayers 3138 kbps.
	// Faults: 14 crash-stop failures (peak 120 stale connections awaiting
	// detection, 0 at the end); 114 announces lost, 101 backoff retries fired.
}

// A catalog entry as a declarative spec: the form to dump, edit and
// reload.
func ExampleNewScenarioSpec() {
	spec, err := stratmatch.NewScenarioSpec("poisson", 1, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d rounds, %d arrival process(es), faults %v\n",
		spec.Name, spec.Rounds, len(spec.Arrivals), spec.HasFaults())
	// Output:
	// poisson: 800 rounds, 1 arrival process(es), faults false
}

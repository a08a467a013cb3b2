package graph

// Components computes the connected components of g using a union-find with
// path halving and union by size. The return value maps every peer to a
// component label in [0, count), labels assigned in order of first
// appearance by rank.
func Components(g Graph) (labels []int, count int) {
	n := g.N()
	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}
	for i := 0; i < n; i++ {
		for _, j := range g.Neighbors(i) {
			if j > i {
				union(i, j)
			}
		}
	}
	labels = make([]int, n)
	next := 0
	first := make(map[int]int, n)
	for i := 0; i < n; i++ {
		root := find(i)
		lbl, ok := first[root]
		if !ok {
			lbl = next
			first[root] = lbl
			next++
		}
		labels[i] = lbl
	}
	return labels, next
}

// IsConnected reports whether g has a single connected component spanning
// every peer. The empty graph and the 1-peer graph are connected.
func IsConnected(g Graph) bool {
	if g.N() <= 1 {
		return true
	}
	_, count := Components(g)
	return count == 1
}

// BFSDistances returns the hop distance from src to every peer, with −1 for
// unreachable peers.
func BFSDistances(g Graph, src int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns how many peers a BFS from src reaches (src
// included) and the largest hop distance among them.
func Eccentricity(g Graph, src int) (reached, ecc int) {
	for _, d := range BFSDistances(g, src) {
		if d >= 0 {
			reached++
			if d > ecc {
				ecc = d
			}
		}
	}
	return reached, ecc
}

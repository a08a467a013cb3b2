package core

// Distance is the paper's normalized configuration distance
//
//	D(C1, C2) = Σ_i Σ_k |σ_k(C1, i) − σ_k(C2, i)| · 2 / (B·(n+1))
//
// where σ_k(C, i) is the k-th best mate of peer i in C, a missing mate reads
// as the sentinel rank n (the paper's "n+1" in 1-based labels), and
// B = Σ_i max(b1(i), b2(i)). For 1-matchings this is exactly the paper's
// metric: the distance between a perfect matching and the empty
// configuration is 1. The generalization to b-matchings keeps that
// normalization property per slot.
//
// Distance panics if the two configurations disagree on the peer count;
// comparing different populations is a programming error.
func Distance(c1, c2 *Config) float64 {
	n := c1.N()
	if c2.N() != n {
		panic("core: Distance between configurations of different sizes")
	}
	if n == 0 {
		return 0
	}
	var total, slots int
	for i := 0; i < n; i++ {
		m1, m2 := c1.Mates(i), c2.Mates(i)
		b := c1.Budget(i)
		if b2 := c2.Budget(i); b2 > b {
			b = b2
		}
		if len(m1) > b {
			b = len(m1)
		}
		if len(m2) > b {
			b = len(m2)
		}
		slots += b
		for k := 0; k < b; k++ {
			s1, s2 := n, n
			if k < len(m1) {
				s1 = m1[k]
			}
			if k < len(m2) {
				s2 = m2[k]
			}
			if s1 > s2 {
				total += s1 - s2
			} else {
				total += s2 - s1
			}
		}
	}
	if slots == 0 {
		return 0
	}
	return float64(total) * 2 / (float64(slots) * float64(n+1))
}

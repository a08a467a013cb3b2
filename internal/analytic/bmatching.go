package analytic

import (
	"fmt"
	"sync/atomic"

	"stratmatch/internal/par"
	"stratmatch/internal/telemetry"
)

// BMatchingResult holds the output of the independent b0-matching recurrence
// (Algorithm 3). Dc(i, j) denotes the probability that choice number c
// (1-based, c ≤ b0) of peer i is peer j.
type BMatchingResult struct {
	// N, P and B0 echo the model parameters.
	N  int
	P  float64
	B0 int
	// SlotMatchProb[c−1][i] is Σ_j Dc(i, j): the probability that peer i's
	// c-th slot is filled.
	SlotMatchProb [][]float64
	// MatchProbAny[i] is the probability that at least the first slot is
	// filled, i.e. that peer i collaborates with anybody (slot fills are
	// nested: slot c fills only if slot c−1 did).
	MatchProbAny []float64
	// Rows maps a tracked peer i to [c−1][j] = Dc(i, j).
	Rows map[int][][]float64
	// ExpectedValue[i] = Σ_c Σ_j Dc(i, j) · value(j) when a partner-value
	// function was supplied, else nil. This powers Figure 11, where
	// value(j) is peer j's upload bandwidth per slot.
	ExpectedValue []float64
}

// BMatchingOptions parameterizes BMatching.
type BMatchingOptions struct {
	// N is the number of peers; P the Erdős–Rényi edge probability; B0 the
	// uniform number of slots per peer.
	N  int
	P  float64
	B0 int
	// TrackRows lists peers whose per-choice distributions are kept whole.
	TrackRows []int
	// PartnerValue, when non-nil, must have length N; the result then
	// contains ExpectedValue[i] = Σ_c Σ_j Dc(i,j)·PartnerValue[j].
	PartnerValue []float64
	// Workers bounds the goroutines sharding the O(n²·b0) recurrence
	// (0 = GOMAXPROCS). The block-wavefront split performs the same
	// floating-point operations in the same per-cell order as the serial
	// evaluation, so the result is byte-identical for any worker count.
	Workers int
}

// BMatching evaluates Algorithm 3 — the independent b0-matching recurrence.
// For every pair i < j and choice indices ci, cj it uses the paper's
// Assumption 2 factorization
//
//	D^{cj}_{ci}(i, j) = p · X_i(ci, j) · X_j(cj, i)
//
// where X_i(c, j) = P(choice c−1 of i matched better than j) − P(choice c of
// i matched better than j), with the convention that "choice 0" is always
// matched better than anybody. (The report's formula (4) prints the
// summation bounds with i and j swapped relative to its own Assumption 2 and
// Algorithm 3 initialization; we implement the semantically consistent
// version, which our Monte-Carlo tests validate.)
//
// Since X_i does not depend on cj, each pair costs O(b0):
// Dci(i,j) = p·X_i(ci)·ΣX_j and Dcj(j,i) = p·X_j(cj)·ΣX_i.
// Total cost is O(n²·b0) time and O(n·b0) memory. At b0 = 2 a specialized
// span holds row i's cumulatives in locals (see bmatchingKernel).
//
// The pair (i, j) depends only on the pairs (i, j−1) (through row i's
// cumulative) and (i−1, j) (through column j's cumulative) — a classic
// wavefront. The recurrence is therefore sharded over Workers goroutines by
// tiling the upper triangle into row×column blocks and handing each tile to
// a persistent worker pool as soon as its two predecessor tiles finish (see
// bmatchingTiled); every memory cell still receives the same additions in
// the same order, so the parallel evaluation is byte-identical to the
// serial one.
func BMatching(opt BMatchingOptions) (*BMatchingResult, error) {
	n, p, b0 := opt.N, opt.P, opt.B0
	if n < 0 {
		return nil, fmt.Errorf("analytic: negative population %d", n)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("analytic: probability %v out of [0,1]", p)
	}
	if b0 < 1 {
		return nil, fmt.Errorf("analytic: b0 = %d, want >= 1", b0)
	}
	if opt.PartnerValue != nil && len(opt.PartnerValue) != n {
		return nil, fmt.Errorf("analytic: PartnerValue has %d entries, want %d", len(opt.PartnerValue), n)
	}
	res := &BMatchingResult{
		N:             n,
		P:             p,
		B0:            b0,
		SlotMatchProb: make([][]float64, b0),
		MatchProbAny:  make([]float64, n),
		Rows:          make(map[int][][]float64, len(opt.TrackRows)),
	}
	for c := 0; c < b0; c++ {
		res.SlotMatchProb[c] = make([]float64, n)
	}
	// tracked[i] is res.Rows[i] indexed densely (nil when untracked): the
	// recurrence reads it for both peers of every pair, and a map lookup
	// there costs more than the pair's arithmetic at small b0.
	tracked := make([][][]float64, n)
	for _, i := range opt.TrackRows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("analytic: tracked row %d out of range [0,%d)", i, n)
		}
		rows := make([][]float64, b0)
		for c := range rows {
			rows[c] = make([]float64, n)
		}
		res.Rows[i] = rows
		tracked[i] = rows
	}
	if opt.PartnerValue != nil {
		res.ExpectedValue = make([]float64, n)
	}

	// The tiled evaluation needs at least two blocks per anti-diagonal to
	// overlap work; below that (or on one worker) the serial scan is the
	// same computation without the barrier overhead.
	if workers := par.Workers(n, opt.Workers); workers > 1 && n >= 2*bmatchingMinBlock {
		bmatchingTiled(res, tracked, opt, workers)
	} else {
		bmatchingSerial(res, tracked, opt)
	}
	for i := 0; i < n; i++ {
		res.MatchProbAny[i] = res.SlotMatchProb[0][i]
	}
	return res, nil
}

// bmatchingKernel evaluates the recurrence's pairs. Both the serial scan
// and the tiles call its span, so they perform the same floating-point
// operations in the same per-cell order. span picks its body on b0 alone:
// span2 at b0 = 2 (Figure 9), the generic loop otherwise. The two bodies
// perform the same operations per cell, so the choice never changes a
// byte; it only keeps the b0 = 2 cumulatives in registers.
//
// SlotMatchProb[c][i] is not accumulated pair by pair. Its additions would
// be column i's (pairs (k, i), k < i) and then row i's, in that order, which
// is exactly the sequence that builds row i's cumulative from its seed
// colCum. So row i's final cumulative is SlotMatchProb[c][i], bit for bit,
// and the callers copy it out.
type bmatchingKernel struct {
	p       float64
	xi, xj  []float64     // X factor scratch, length b0
	tracked [][][]float64 // see BMatching
	// value and expected are opt.PartnerValue and res.ExpectedValue, or
	// nil.
	value, expected []float64
}

func newBMatchingKernel(res *BMatchingResult, tracked [][][]float64, opt BMatchingOptions) *bmatchingKernel {
	return &bmatchingKernel{
		p:        opt.P,
		xi:       make([]float64, opt.B0),
		xj:       make([]float64, opt.B0),
		tracked:  tracked,
		value:    opt.PartnerValue,
		expected: res.ExpectedValue,
	}
}

// span applies the pairs (i, j) for j0 ≤ j < j1, in increasing j, with
// i < j0. ri[c] is Σ_{k<j} D_{c+1}(i, k) and colCum[j*b0+c] is
// Σ_{k<i} D_{c+1}(j, k); both advance past each pair in place.
func (k *bmatchingKernel) span(i, j0, j1 int, ri, colCum []float64) {
	if len(k.xi) == 2 {
		k.span2(i, j0, j1, ri, colCum)
		return
	}
	p, xi, xj := k.p, k.xi, k.xj
	b0 := len(xi)
	rowOut := k.tracked[i]
	for j := j0; j < j1; j++ {
		cj := colCum[j*b0 : (j+1)*b0]
		// X factors before any update for this pair.
		var sumXi, sumXj float64
		for c := range xi {
			prev := 1.0
			if c > 0 {
				prev = ri[c-1]
			}
			xi[c] = prev - ri[c]
			sumXi += xi[c]
			prev = 1.0
			if c > 0 {
				prev = cj[c-1]
			}
			xj[c] = prev - cj[c]
			sumXj += xj[c]
		}
		colOut := k.tracked[j]
		for c := range xi {
			dci := p * xi[c] * sumXj // Dc(i, j)
			dcj := p * xj[c] * sumXi // Dc(j, i)
			ri[c] += dci
			cj[c] += dcj
			if rowOut != nil {
				rowOut[c][j] = dci
			}
			if colOut != nil {
				colOut[c][i] = dcj
			}
		}
		if k.expected != nil {
			pairProb := p * sumXi * sumXj // P(i and j matched at all)
			k.expected[i] += pairProb * k.value[j]
			k.expected[j] += pairProb * k.value[i]
		}
	}
}

// span2 is span at b0 = 2, Figure 9's case. It performs the generic loop's
// floating-point operations in the same order per cell, but holds row i's
// two cumulatives (and its ExpectedValue sum) in locals for the whole span
// and computes the X factors in registers. In the generic loop each pair's
// update of ri is stored to memory and reloaded by the next pair, which
// serializes the span on store-to-load forwarding; here the only memory a
// pair touches is column j's two colCum cells, its tracked rows and the
// partner values.
func (k *bmatchingKernel) span2(i, j0, j1 int, ri, colCum []float64) {
	p := k.p
	r0, r1 := ri[0], ri[1]
	var row0, row1 []float64
	if rowOut := k.tracked[i]; rowOut != nil {
		row0, row1 = rowOut[0], rowOut[1]
	}
	var ei, vi float64
	if k.expected != nil {
		ei, vi = k.expected[i], k.value[i]
	}
	cols := colCum[2*j0 : 2*j1]
	for t, colOut := range k.tracked[j0:j1] {
		cj := cols[2*t : 2*t+2 : 2*t+2]
		c0, c1 := cj[0], cj[1]
		xi0, xi1 := 1.0-r0, r0-r1
		xj0, xj1 := 1.0-c0, c0-c1
		sumXi, sumXj := xi0+xi1, xj0+xj1
		dci0, dci1 := p*xi0*sumXj, p*xi1*sumXj // Dc(i, j)
		dcj0, dcj1 := p*xj0*sumXi, p*xj1*sumXi // Dc(j, i)
		r0 += dci0
		r1 += dci1
		cj[0] = c0 + dcj0
		cj[1] = c1 + dcj1
		j := j0 + t
		if row0 != nil {
			row0[j] = dci0
			row1[j] = dci1
		}
		if colOut != nil {
			colOut[0][i] = dcj0
			colOut[1][i] = dcj1
		}
		if k.expected != nil {
			pairProb := p * sumXi * sumXj // P(i and j matched at all)
			ei += pairProb * k.value[j]
			k.expected[j] += pairProb * vi
		}
	}
	ri[0], ri[1] = r0, r1
	if k.expected != nil {
		k.expected[i] = ei
	}
}

// bmatchingSerial is the reference row-major evaluation.
func bmatchingSerial(res *BMatchingResult, tracked [][][]float64, opt BMatchingOptions) {
	n, b0 := opt.N, opt.B0
	k := newBMatchingKernel(res, tracked, opt)
	// colCum[j*b0+c] = Σ_{k<i} D_{c+1}(j, k) for the current outer row i;
	// a column's b0 cells share a cache line.
	colCum := make([]float64, n*b0)
	rowCum := make([]float64, b0) // Σ_{k<j} D_{c+1}(i, k) while scanning row i
	for i := 0; i < n; i++ {
		copy(rowCum, colCum[i*b0:(i+1)*b0])
		k.span(i, i+1, n, rowCum, colCum)
		for c := 0; c < b0; c++ {
			res.SlotMatchProb[c][i] = rowCum[c]
		}
	}
}

// bmatchingMinBlock is the smallest tile edge worth a barrier: a tile costs
// O(block²·b0) floating-point work against one wave synchronization.
const bmatchingMinBlock = 64

// bmatchingTiled shards the recurrence into block×block tiles of the upper
// triangle: tile (I, J) — rows of block I against columns of block J —
// depends only on tiles (I, J−1) and (I−1, J). Unlike the serial scan, row
// cumulatives persist per row (rowCum[i*b0+c]) because a row's tiles are
// visited by different workers over time; the diagonal tile seeds them from
// colCum exactly where the serial scan would.
//
// Scheduling is a dependency-counted handoff on a persistent par.Pool
// rather than per-anti-diagonal barriers: each tile carries the count of
// its unfinished predecessors, a finished tile decrements its (I, J+1) and
// (I+1, J) successors, and whichever decrement reaches zero enqueues the
// successor on the ready channel. A tile therefore starts the moment its
// own inputs are final instead of waiting for the slowest tile of its
// anti-diagonal, and the pool goroutines are spawned once per evaluation
// instead of once per wave.
//
// Determinism: two tiles are only ever concurrent when neither reaches the
// other through the dependency edges. A conflict between tile (I1, J1)'s
// rows and tile (I2, J2)'s columns needs I1 == J2; but then (I2, J2) chains
// to (I1, J1) through column J2 down to the diagonal and along row I1
// ((I2, I1) → … → (I1, I1) → … → (I1, J1)), so they are ordered, and
// same-row or same-column tiles are chained directly. Each cell of colCum,
// rowCum and ExpectedValue therefore receives exactly the additions of the
// serial scan, in the same order, for every worker count and every handoff
// schedule.
func bmatchingTiled(res *BMatchingResult, tracked [][][]float64, opt BMatchingOptions, workers int) {
	n, b0 := opt.N, opt.B0
	// Flat [peer*b0+c] layouts, as in bmatchingSerial.
	colCum := make([]float64, n*b0)
	rowCum := make([]float64, n*b0)
	// ~4 blocks per worker keeps enough tiles in flight to feed the pool
	// while the tiles stay coarse; the floor bounds the handoff count.
	block := (n + 4*workers - 1) / (4 * workers)
	if block < bmatchingMinBlock {
		block = bmatchingMinBlock
	}
	nb := (n + block - 1) / block

	// One kernel (X-factor scratch) per worker.
	kernels := make([]*bmatchingKernel, workers)
	for w := range kernels {
		kernels[w] = newBMatchingKernel(res, tracked, opt)
	}

	runTile := func(w, I, J int) {
		r0, r1 := I*block, min((I+1)*block, n)
		c1 := min((J+1)*block, n)
		k := kernels[w]
		for i := r0; i < r1; i++ {
			ri := rowCum[i*b0 : (i+1)*b0]
			jStart := J * block
			if I == J {
				// Row i starts here: seed its cumulative from column
				// i's state, which is final — every (k, i) pair with
				// k < i lives in a predecessor tile or earlier in this
				// tile.
				copy(ri, colCum[i*b0:(i+1)*b0])
				jStart = i + 1
			}
			k.span(i, jStart, c1, ri, colCum)
		}
	}

	// Tile (I, J) waits for (I, J−1) when the row extends left of it and
	// for (I−1, J) when a block row sits above; only (0, 0) starts free.
	total := nb * (nb + 1) / 2
	deps := make([]atomic.Int32, nb*nb)
	for I := 0; I < nb; I++ {
		for J := I; J < nb; J++ {
			var d int32
			if J > I {
				d++
			}
			if I > 0 {
				d++
			}
			deps[I*nb+J].Store(d)
		}
	}
	// Buffered for every tile plus one shutdown sentinel per worker, so no
	// send ever blocks.
	ready := make(chan int, total+workers)
	ready <- 0
	var finished atomic.Int32

	pool := par.NewPool(workers)
	defer pool.Close()
	pool.Run(func(w int) {
		r := par.Telemetry()
		for idx := range ready {
			if idx < 0 {
				return
			}
			I, J := idx/nb, idx%nb
			sp := r.StartPhase(telemetry.PhaseParTask)
			runTile(w, I, J)
			r.EndPhase(telemetry.PhaseParTask, sp)
			r.Inc(telemetry.CtrParTasks)
			if J+1 < nb && deps[I*nb+J+1].Add(-1) == 0 {
				ready <- I*nb + J + 1
			}
			if I < J && deps[(I+1)*nb+J].Add(-1) == 0 {
				ready <- (I+1)*nb + J
			}
			if int(finished.Add(1)) == total {
				for k := 0; k < workers; k++ {
					ready <- -1
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		for c := 0; c < b0; c++ {
			res.SlotMatchProb[c][i] = rowCum[i*b0+c]
		}
	}
}

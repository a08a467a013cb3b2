package btsim

import "math/bits"

// bitset is a fixed-size piece bitmap.
type bitset struct {
	words []uint64
	n     int
}

func newBitset(n int) bitset {
	return bitset{words: make([]uint64, (n+63)/64), n: n}
}

func (b bitset) has(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

func (b bitset) full() bool { return b.count() == b.n }

// clear resets every bit; recycled bitfields (see Swarm.havePool) are
// cleared before the next occupant uses them.
func (b bitset) clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

func (b bitset) setAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Clear padding bits beyond n.
	if extra := len(b.words)*64 - b.n; extra > 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= ^uint64(0) >> uint(extra)
	}
}

// countMissingIn counts the pieces other holds that b lacks — the initial
// value of the incremental interest counter want[e].
func (b bitset) countMissingIn(other bitset) int {
	total := 0
	for i, w := range b.words {
		total += bits.OnesCount64(other.words[i] &^ w)
	}
	return total
}

// addTo adds d to row[i] for every piece i the bitfield holds, iterating
// only the set bits: one neighbor's contribution to an availability row.
func (b bitset) addTo(row []int32, d int32) {
	for wi, w := range b.words {
		for w != 0 {
			row[wi<<6+bits.TrailingZeros64(w)] += d
			w &= w - 1
		}
	}
}

// padded reports whether a bit past n is set. No engine path sets one; a
// loaded bitfield that does is rejected, because addTo and pickPiece read
// every set bit as a piece index.
func (b bitset) padded() bool {
	extra := len(b.words)*64 - b.n
	return extra > 0 && b.words[len(b.words)-1]>>(64-extra) != 0
}

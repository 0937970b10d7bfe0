package kernel

import "math/bits"

// Bitset is a dense bitmask over column indices, stored SWAR-style as
// uint64 words (bit i lives in word i/64). The engine uses it for the
// per-row dirty frontiers that drive the masked min-plus kernels: bit t set
// means column t changed since the last clean global convergence.
//
// All methods are allocation-free; a Bitset is just a word slice, so views
// into a shared word arena (see dv.Matrix) and private copies behave
// identically.
type Bitset []uint64

// BitsetWords returns the number of uint64 words needed for n bits.
func BitsetWords(n int) int { return (n + 63) >> 6 }

// NewBitset allocates a zeroed bitset with capacity for n bits.
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Or folds every set bit of o into b (over the common word prefix).
func (b Bitset) Or(o Bitset) {
	n := len(o)
	if len(b) < n {
		n = len(b)
	}
	for w := 0; w < n; w++ {
		b[w] |= o[w]
	}
}

// Reset clears every bit.
func (b Bitset) Reset() {
	for w := range b {
		b[w] = 0
	}
}

// SetRange sets every bit in the half-open range [lo, hi).
func (b Bitset) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	mLo := ^uint64(0) << uint(lo&63)
	mHi := ^uint64(0) >> uint(63-(hi-1)&63)
	if wLo == wHi {
		b[wLo] |= mLo & mHi
		return
	}
	b[wLo] |= mLo
	for w := wLo + 1; w < wHi; w++ {
		b[w] = ^uint64(0)
	}
	b[wHi] |= mHi
}

// NextSet returns the index of the first set bit >= i, or -1 if none.
func (b Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if word := b[w] >> uint(i&63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// OnesCount returns the number of set bits (the frontier's population — the
// numerator of the density cutover).
func (b Bitset) OnesCount() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// OnesCountBelow returns the number of set bits below n: the columns a
// mask compiled for width n visits (BlockMask.Ops).
func (b Bitset) OnesCountBelow(n int) int {
	whole := min(len(b), n>>6)
	c := 0
	for _, word := range b[:whole] {
		c += bits.OnesCount64(word)
	}
	if whole < len(b) && n&63 != 0 {
		c += bits.OnesCount64(b[whole] & (1<<uint(n&63) - 1))
	}
	return c
}

// NonzeroWords returns how many words hold at least one set bit (the
// FrontierWords telemetry unit).
func (b Bitset) NonzeroWords() int {
	c := 0
	for _, w := range b {
		if w != 0 {
			c++
		}
	}
	return c
}

// Any reports whether any bit is set.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

package ctree

import "math/bits"

// Bitset is a dense bit vector indexed by node slot. The arena uses one for
// its liveness map and one for its dirty-index journal; at a million nodes
// each costs 128 KB, where a map keyed by node ID would take megabytes.
type Bitset []uint64

// Set sets bit i, growing the set as needed.
func (b *Bitset) Set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// Unset clears bit i (no-op when out of range).
func (b Bitset) Unset(i int) {
	w := i >> 6
	if w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Test reports whether bit i is set.
func (b Bitset) Test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Reset clears every bit, keeping the backing array.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

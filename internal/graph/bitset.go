package graph

import "math/bits"

// bitsetMinDeg is the minimum degree before a node's adjacency is
// promoted from a sorted []ID slice to an ID-indexed bitset. Promotion
// additionally requires deg >= bitsetWords(maxID), which bounds the
// bitset's memory by the memory of the slice it replaces (one word per
// 64 IDs versus one word per neighbor). Tests force promotion on tiny
// graphs through the per-graph minDeg override.
const bitsetMinDeg = 64

// bitsetWords returns the number of 64-bit words a bitset covering IDs
// 0..maxID needs. maxID must be >= 0.
func bitsetWords(maxID ID) int { return (int(maxID) >> 6) + 1 }

// bitsetHas reports whether bit v is set. Words beyond len(b) are
// implicitly zero, so short bitsets are always safe to query.
func bitsetHas(b []uint64, v ID) bool {
	w := int(v >> 6)
	return w < len(b) && b[w]&(1<<(uint(v)&63)) != 0
}

// bitsetSet sets bit v, growing b with zero words as needed.
func bitsetSet(b []uint64, v ID) []uint64 {
	w := int(v >> 6)
	for len(b) <= w {
		b = append(b, 0)
	}
	b[w] |= 1 << (uint(v) & 63)
	return b
}

// bitsetUnset clears bit v if it is in range.
func bitsetUnset(b []uint64, v ID) {
	if w := int(v >> 6); w < len(b) {
		b[w] &^= 1 << (uint(v) & 63)
	}
}

// appendBitset appends the IDs of all set bits of b, ascending, to dst.
func appendBitset(dst []ID, b []uint64) []ID {
	for w, word := range b {
		base := ID(w << 6)
		for word != 0 {
			dst = append(dst, base+ID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// trailingZeros64 re-exports math/bits for files that iterate bitset
// words inline.
func trailingZeros64(x uint64) int { return bits.TrailingZeros64(x) }

// bitsetIntersects reports whether a and b share a set bit. Trailing
// words present in only one operand are implicitly zero in the other.
func bitsetIntersects(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

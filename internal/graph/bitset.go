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

// IDSet is a set of node IDs held as an ID-indexed bitset — the dense
// adjacency representation above, exported for the machines and
// instruments that keep "the IDs a node has heard of" (baseline's
// flood and clique, bounds.KnowledgeTracker). Bit v is ID v, whatever
// the IDs' ranks are, so a set costs ⌈(max member+1)/64⌉ words: the
// same O(MaxID) contract as the Graph's tables. Words beyond the
// length are implicitly zero; the zero value is the empty set. Methods
// that grow the set take a pointer receiver and keep the backing array
// across Reset, so a recycled owner allocates nothing.
type IDSet []uint64

// Has reports whether v is a member.
func (s IDSet) Has(v ID) bool { return bitsetHas(s, v) }

// Add inserts v, growing the set as needed.
func (s *IDSet) Add(v ID) { *s = bitsetSet(*s, v) }

// Max returns the largest member, or -1 when the set is empty.
func (s IDSet) Max() ID {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			return ID(w<<6 + bits.Len64(s[w]) - 1)
		}
	}
	return -1
}

// Reset empties the set, keeping its backing array. The whole
// capacity is zeroed, not just the current length, so no member of an
// earlier, larger use can resurface when the set grows again.
func (s *IDSet) Reset() {
	clear((*s)[:cap(*s)])
	*s = (*s)[:0]
}

// CopyFrom makes the set equal to src, reusing its backing array.
func (s *IDSet) CopyFrom(src IDSet) { *s = append((*s)[:0], src...) }

// Merge adds every member of src and returns how many were new. When
// each is non-nil it is called on the new members in ascending order,
// each already inserted. Only s is written: src may be a snapshot
// other goroutines are reading.
func (s *IDSet) Merge(src IDSet, each func(ID)) int {
	for len(*s) < len(src) {
		*s = append(*s, 0)
	}
	dst, added := *s, 0
	for w, word := range src {
		fresh := word &^ dst[w]
		if fresh == 0 {
			continue
		}
		dst[w] |= fresh
		added += bits.OnesCount64(fresh)
		if each != nil {
			for base := ID(w << 6); fresh != 0; fresh &= fresh - 1 {
				each(base + ID(bits.TrailingZeros64(fresh)))
			}
		}
	}
	return added
}

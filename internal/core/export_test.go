package core

import (
	"fmt"
	"reflect"
	"slices"
)

// NextCall exposes nextCall to the external skip-soundness test.
func (m *GraphToStar) NextCall(pos int) int { return m.nextCall(pos) }

// CopyStateTo makes dst a deep copy of m, reusing dst's slices.
func (m *GraphToStar) CopyStateTo(dst *GraphToStar) {
	keep := *dst
	*dst = *m
	dst.followers = append(keep.followers[:0], m.followers...)
	dst.queriers = append(keep.queriers[:0], m.queriers...)
	dst.linkers = append(keep.linkers[:0], m.linkers...)
}

// SameState reports whether a and b hold equal fields, slices by
// content (a nil and an empty slice are equal). It names every field;
// gtsFields makes a field added to GraphToStar fail it until listed.
func SameState(a, b *GraphToStar) bool {
	if n := reflect.TypeFor[GraphToStar]().NumField(); n != gtsFields {
		panic(fmt.Sprintf("SameState compares %d GraphToStar fields, the struct has %d", gtsFields, n))
	}
	return slices.Equal(a.followers, b.followers) && slices.Equal(a.queriers, b.queriers) &&
		slices.Equal(a.linkers, b.linkers) && a.rep == b.rep &&
		a.selfID == b.selfID && a.role == b.role && a.leader == b.leader && a.mode == b.mode &&
		a.target == b.target && a.selecting == b.selecting && a.selTarget == b.selTarget &&
		a.hop1 == b.hop1 && a.hop1Temp == b.hop1Temp && a.gotLink == b.gotLink &&
		a.repliedRoot == b.repliedRoot && a.paired == b.paired && a.replySeen == b.replySeen &&
		a.replyRootSeen == b.replyRootSeen &&
		a.replyFollowSeen == b.replyFollowSeen && a.replyNext == b.replyNext &&
		a.hopped == b.hopped && a.prevTarget == b.prevTarget && a.execMerge == b.execMerge &&
		a.annOut == b.annOut && a.replyOut == b.replyOut &&
		a.selOut == b.selOut && a.nextOut == b.nextOut
}

const gtsFields = 27

package sjoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"timber/internal/xmltree"
)

// pushMerged feeds both sorted lists to a Stream in merged (doc, start)
// order, descendants first on ties — the documented push contract.
func pushMerged(s *Stream, alist, dlist []xmltree.Interval) {
	ai, di := 0, 0
	for di < len(dlist) {
		if ai < len(alist) && alist[ai].Before(dlist[di]) {
			s.PushAncestor(alist[ai], ai)
			ai++
			continue
		}
		s.PushDescendant(dlist[di], di)
		di++
	}
	// Remaining ancestors can produce no pairs; feeding them anyway
	// must be harmless.
	for ; ai < len(alist); ai++ {
		s.PushAncestor(alist[ai], ai)
	}
}

// TestStreamMatchesStackTreeProperty pins the incremental join against
// the batch one: same pairs, same order, on random forests, both axes.
func TestStreamMatchesStackTreeProperty(t *testing.T) {
	prop := func(seed int64, pc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		alist, dlist := randomForest(rng)
		axis := AncestorDescendant
		if pc {
			axis = ParentChild
		}
		want := StackTree(alist, dlist, axis, nil)
		var got []Pair
		s := NewStream(axis, nil, func(a, d int) { got = append(got, Pair{A: a, D: d}) })
		pushMerged(s, alist, dlist)
		s.Flush()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestStreamReuseAcrossChunks verifies Flush resets the stream so one
// Stream instance can serve successive chunks (the selection operator
// reuses one per step), and that metrics accumulate across flushes.
func TestStreamReuseAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Metrics
	for chunk := 0; chunk < 4; chunk++ {
		alist, dlist := randomForest(rng)
		want := StackTree(alist, dlist, AncestorDescendant, nil)
		var got []Pair
		s := NewStream(AncestorDescendant, &m, func(a, d int) { got = append(got, Pair{A: a, D: d}) })
		pushMerged(s, alist, dlist)
		s.Flush()
		if len(got) != len(want) {
			t.Fatalf("chunk %d: got %d pairs, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d pair %d: got %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
	if m.Joins.Load() != 4 {
		t.Errorf("joins = %d, want 4", m.Joins.Load())
	}
}

// Package sjoin implements structural containment joins over interval-
// numbered node lists: given a list of potential ancestors and a list of
// potential descendants, it finds all pairs related by containment
// (ancestor-descendant) or immediate containment (parent-child).
//
// Pattern-tree matching determines "structural containment relationships
// between candidate nodes ... one pattern tree edge at a time" with
// "efficient single-pass containment join algorithms whose asymptotic
// cost is optimal" (Sec. 5.2, citing Al-Khalifa et al., ICDE 2002). The
// single-pass algorithm here is Stack-Tree: it merges the two input
// lists in document order while maintaining a stack of nested ancestors,
// and runs in O(|A| + |D| + |output|) time. A quadratic nested-loop join
// is provided as a testing and benchmarking baseline.
//
// Both inputs must be sorted by (document, start) — precisely the order
// in which the storage layer's tag index yields postings.
package sjoin

import (
	"context"
	"sort"
	"sync/atomic"

	"timber/internal/par"
	"timber/internal/xmltree"
)

// Metrics accumulates structural-join work counts for the
// observability layer. Counters are atomic so per-document joins
// running on a worker pool record into one shared Metrics without
// coordination; a nil *Metrics records nothing (a nil-check per join,
// not per pair).
type Metrics struct {
	// Joins is the number of single-pass joins performed.
	Joins atomic.Int64
	// Ancestors and Descendants count input-list entries consumed.
	Ancestors   atomic.Int64
	Descendants atomic.Int64
	// Pairs counts output pairs produced.
	Pairs atomic.Int64
}

func (m *Metrics) note(na, nd, np int) {
	if m == nil {
		return
	}
	m.Joins.Add(1)
	m.Ancestors.Add(int64(na))
	m.Descendants.Add(int64(nd))
	m.Pairs.Add(int64(np))
}

// Axis selects the structural relationship to join on.
type Axis int

const (
	// AncestorDescendant joins pairs where A properly contains D.
	AncestorDescendant Axis = iota
	// ParentChild joins pairs where A is the parent of D.
	ParentChild
)

// Pair is one join result: indices into the ancestor and descendant
// input slices.
type Pair struct {
	A int // index into the ancestor list
	D int // index into the descendant list
}

// StackTree performs a single-pass structural join between ancs and
// descs, both sorted by (doc, start). It returns all (a, d) index pairs
// where ancs[a] contains descs[d] (and, for ParentChild, is exactly one
// level up). Output pairs are grouped by descendant in document order;
// within one descendant, ancestors appear outermost first. The join's
// input and output sizes are recorded into m (nil m records nothing).
func StackTree(ancs, descs []xmltree.Interval, axis Axis, m *Metrics) []Pair {
	var out []Pair
	// stack holds indices into ancs of nodes that contain the current
	// scan position, outermost at the bottom.
	var stack []int
	ai, di := 0, 0
	for di < len(descs) {
		d := descs[di]
		// Advance ancestors whose start precedes this descendant.
		for ai < len(ancs) && ancs[ai].Before(d) {
			a := ancs[ai]
			popClosed(ancs, &stack, a)
			stack = append(stack, ai)
			ai++
		}
		popClosed(ancs, &stack, d)
		for _, si := range stack {
			a := ancs[si]
			if a.Start == d.Start && a.Doc == d.Doc {
				continue // same node appearing in both lists
			}
			if axis == ParentChild && a.Level+1 != d.Level {
				continue
			}
			out = append(out, Pair{A: si, D: di})
		}
		di++
	}
	m.note(len(ancs), len(descs), len(out))
	return out
}

// popClosed removes stack entries that do not contain position pos
// (ended before it, or in an earlier document).
func popClosed(ancs []xmltree.Interval, stack *[]int, pos xmltree.Interval) {
	s := *stack
	for len(s) > 0 {
		top := ancs[s[len(s)-1]]
		if top.Doc == pos.Doc && top.End > pos.Start {
			break
		}
		s = s[:len(s)-1]
	}
	*stack = s
}

// segment is one document's contiguous slice of a sorted interval list.
type segment struct {
	doc    xmltree.DocID
	lo, hi int
}

// docSegments splits a (doc, start)-sorted interval list into its
// per-document contiguous segments.
func docSegments(ivs []xmltree.Interval) []segment {
	var segs []segment
	for lo := 0; lo < len(ivs); {
		doc := ivs[lo].Doc
		hi := lo + 1
		for hi < len(ivs) && ivs[hi].Doc == doc {
			hi++
		}
		segs = append(segs, segment{doc: doc, lo: lo, hi: hi})
		lo = hi
	}
	return segs
}

// StackTreePar is StackTree partitioned by document and evaluated with
// up to workers goroutines: containment never crosses documents, so
// each document's (ancestor, descendant) segments join independently
// and the per-document outputs concatenate in document order. The
// result is byte-identical to StackTree — same pairs, same order —
// because StackTree itself processes descendants in document order and
// a descendant's matching ancestors always come from its own document.
// Inputs follow the StackTree contract: sorted by (doc, start).
//
// A non-nil ctx cancels the join between document partitions (and, on
// the parallel path, mid-batch inside the worker pool); a cancelled
// join returns ctx.Err() and no pairs — never a silently truncated
// pair list — and records nothing. A completed join records its total
// input and output sizes into m as one logical join (the per-document
// partitions are an implementation detail; nil m records nothing).
func StackTreePar(ctx context.Context, ancs, descs []xmltree.Interval, axis Axis, workers int, m *Metrics) ([]Pair, error) {
	dsegs := docSegments(descs)
	if workers <= 1 || len(dsegs) <= 1 {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		return StackTree(ancs, descs, axis, m), nil
	}
	asegs := docSegments(ancs)
	parts := make([][]Pair, len(dsegs))
	err := par.Do(ctx, len(dsegs), workers, func(k int) error {
		ds := dsegs[k]
		// Locate this document's ancestor segment (may be absent).
		i := sort.Search(len(asegs), func(i int) bool { return asegs[i].doc >= ds.doc })
		if i == len(asegs) || asegs[i].doc != ds.doc {
			return nil
		}
		as := asegs[i]
		pairs := StackTree(ancs[as.lo:as.hi], descs[ds.lo:ds.hi], axis, nil)
		for p := range pairs {
			pairs[p].A += as.lo
			pairs[p].D += ds.lo
		}
		parts[k] = pairs
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Pair, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	m.note(len(ancs), len(descs), len(out))
	return out, nil
}

// NestedLoop is the O(|A|·|D|) baseline with identical output semantics
// to StackTree (same pairs, same grouping: by descendant, ancestors
// outermost first).
func NestedLoop(ancs, descs []xmltree.Interval, axis Axis) []Pair {
	var out []Pair
	for di, d := range descs {
		for aiIdx, a := range ancs {
			if !a.Contains(d) {
				continue
			}
			if axis == ParentChild && a.Level+1 != d.Level {
				continue
			}
			out = append(out, Pair{A: aiIdx, D: di})
		}
	}
	return out
}

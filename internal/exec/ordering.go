package exec

import (
	"context"
	"sort"

	"timber/internal/obs"
	"timber/internal/par"
	"timber/internal/storage"
	"timber/internal/tax"
	"timber/internal/xmltree"
)

// This file implements ORDER BY support across the physical plans: the
// GROUPBY ordering list (Sec. 3) orders each group's members, and
// Sec. 5.3 notes that the sorting-list values are populated alongside
// the grouping values, still on identifiers.

// orderValues fetches, for every distinct member among the postings,
// the member's ordering value: the content of the first order-path
// match. Members without a match are absent from the map (they sort
// with the empty key by convention, matching the logical operator).
// The selection of each member's first (document-order) match is
// sequential and deterministic; only the value fetches fan out over
// the worker pool.
func orderValues(ctx context.Context, db storage.Reader, members []storage.Posting, path Path, res *Result, workers int, sp *obs.Span) (map[xmltree.NodeID]string, error) {
	ordSp := sp.Child("populate: ordering values")
	defer ordSp.End()
	pairs, err := pathPairs(ctx, db, members, path, workers, ordSp)
	if err != nil {
		return nil, err
	}
	res.Stats.IndexPostings += len(pairs)
	var firsts []pair
	seen := map[xmltree.NodeID]bool{}
	for _, p := range pairs {
		id := p.member.ID()
		if seen[id] {
			continue // keep the first (document-order) match
		}
		seen[id] = true
		firsts = append(firsts, p)
	}
	values := make([]string, len(firsts))
	if err := par.Do(ctx, len(firsts), workers, func(i int) error {
		v, err := db.Content(firsts[i].leaf)
		if err != nil {
			return err
		}
		values[i] = v
		return nil
	}); err != nil {
		return nil, err
	}
	res.Stats.ValueLookups += len(firsts)
	ordSp.Add("value_lookups", int64(len(firsts)))
	out := make(map[xmltree.NodeID]string, len(firsts))
	for i, p := range firsts {
		out[p.member.ID()] = values[i]
	}
	return out, nil
}

// orderLess compares two ordering keys under the requested direction.
func orderLess(a, b string, desc bool) bool {
	cmp := tax.CompareValues(a, b)
	if desc {
		cmp = -cmp
	}
	return cmp < 0
}

// sortTreesByPathInPlace reorders the member trees (in their slots) by
// the first value at the member-relative path; trees without a match
// keep their positions, mirroring plan.SortChildrenByPath.
func sortTreesByPathInPlace(trees []*xmltree.Node, path Path, desc bool) {
	type keyed struct {
		node *xmltree.Node
		key  string
	}
	var slots []int
	var matched []keyed
	for i, tr := range trees {
		if vs := valuesAtPath(tr, path); len(vs) > 0 {
			slots = append(slots, i)
			matched = append(matched, keyed{node: tr, key: vs[0]})
		}
	}
	sort.SliceStable(matched, func(i, j int) bool {
		return orderLess(matched[i].key, matched[j].key, desc)
	})
	for i, slot := range slots {
		trees[slot] = matched[i].node
	}
}

package planner

import (
	"fmt"

	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/stats"
)

// MatcherCandidate is one costed matcher alternative.
type MatcherCandidate struct {
	Matcher match.MatcherKind
	Cost    float64
	// Detail summarizes where the cost comes from, for EXPLAIN output.
	Detail string
}

// MatcherDecision is the planner's pattern-matcher choice plus the
// reasoning behind it, the physical-path sibling of Decision: Decision
// picks the grouping executor, MatcherDecision picks the algorithm
// that embeds the pattern tree into the database underneath it.
type MatcherDecision struct {
	// Matcher is the chosen algorithm.
	Matcher match.MatcherKind
	// Candidates holds every costed alternative, cheapest first.
	Candidates []MatcherCandidate
	// JoinOrder is the edge-resolution order the chosen matcher is
	// expected to use: the planner's greedy simulation for the binary
	// cascade, pattern pre-order for the holistic matcher (which binds
	// all streams at once).
	JoinOrder []string
	// Witnesses is the estimated binding count.
	Witnesses float64
	// StatsUsed reports whether cardinality statistics informed the
	// choice; without them the holistic matcher is the structural
	// default whenever the pattern qualifies.
	StatsUsed bool
}

// NodeEstimate estimates how many postings one pattern node's access
// path yields. A tag alone scans the tag index; a tag plus an equality
// content predicate probes the value index, which returns about
// ValuePostings/DistinctValues postings per distinct content — this is
// where a selective value predicate shrinks the estimate. An untagged
// node falls back to every node in the database.
func NodeEstimate(cat *stats.Catalog, pn *pattern.Node) float64 {
	tag := pn.TagConstraint()
	if tag == "" {
		return float64(cat.TotalNodes)
	}
	est := cat.Postings(tag)
	if hasContentEq(pn) {
		if m := cat.AvgValueMatches(tag); m < est {
			est = m
		}
	}
	return est
}

func hasContentEq(pn *pattern.Node) bool {
	for _, p := range pn.Preds {
		if ceq, ok := p.(pattern.ContentEq); ok && len(ceq.Value) > 0 {
			return true
		}
	}
	return false
}

// residual reports whether the node carries predicates no index
// answers (globs, content on untagged nodes), which force per-posting
// record fetches in every matcher.
func residual(pn *pattern.Node) bool {
	for _, p := range pn.Preds {
		switch p.(type) {
		case pattern.TagEq:
		case pattern.ContentEq:
			if pn.TagConstraint() == "" {
				return true
			}
		default:
			return true
		}
	}
	return false
}

// ChooseMatcher costs the holistic twig matcher against the cascaded
// binary structural joins for a pattern tree, in the same
// posting-access units as Choose. The binary cascade pays to
// materialize every node's candidate list and every intermediate row
// set; the holistic matcher pays only for the postings its aligned
// streams cannot skip plus root-to-leaf path solutions. Without
// statistics the holistic matcher wins by default whenever the
// pattern qualifies (every node tagged); a disqualified pattern is
// always binary.
func ChooseMatcher(cat *stats.Catalog, pt *pattern.Tree) *MatcherDecision {
	order := patternPreorder(pt.Root)
	labels := make([]string, len(order))
	for i, pn := range order {
		labels[i] = pn.Label
	}
	if !match.TwigApplicable(pt) {
		return &MatcherDecision{
			Matcher: match.MatcherBinary,
			Candidates: []MatcherCandidate{{Matcher: match.MatcherBinary,
				Detail: "untagged pattern node needs a scan; only the binary cascade has one"}},
			JoinOrder: labels,
		}
	}
	if cat == nil || len(cat.Tags) == 0 || cat.TotalNodes == 0 {
		return &MatcherDecision{
			Matcher: match.MatcherTwig,
			Candidates: []MatcherCandidate{{Matcher: match.MatcherTwig,
				Detail: "no statistics; holistic matcher is the structural default"}},
			JoinOrder: labels,
		}
	}

	// Shared per-node access estimates and structural row estimates.
	idx := make(map[string]int, len(order))
	for i, pn := range order {
		idx[pn.Label] = i
	}
	est := make([]float64, len(order))
	rows := make([]float64, len(order))
	fetches := 0.0 // record fetches for residual predicates (both matchers)
	for i, pn := range order {
		est[i] = NodeEstimate(cat, pn)
		if i == 0 {
			rows[i] = est[i]
		} else {
			p := idx[pn.Parent.Label]
			rows[i] = edgeRows(cat, order[p].TagConstraint(), rows[p], pn.TagConstraint(), est[i])
		}
		if residual(pn) {
			fetches += est[i]
		}
	}
	// Witness estimate under edge independence: the root's rows thinned
	// by each edge's surviving fraction.
	w := rows[0]
	for i := 1; i < len(order); i++ {
		p := idx[order[i].Parent.Label]
		if rows[p] > 0 {
			w *= rows[i] / rows[p]
		} else {
			w = 0
		}
	}

	// Binary cascade: decode every candidate list in full, then resolve
	// edges greedily (smallest estimated list first among nodes with a
	// bound parent), materializing the intermediate row set after each.
	binScan := 0.0
	for i := range order {
		binScan += est[i]
	}
	jorder := greedyEstOrder(order, idx, est)
	binJoin, inter, rowsNow := 0.0, 0.0, rows[0]
	for _, i := range jorder {
		p := idx[order[i].Parent.Label]
		frac := 1.0
		if rows[p] > 0 {
			frac = rows[i] / rows[p]
		}
		binJoin += costPosting * (rowsNow + est[i]) // single-pass containment merge
		rowsNow *= frac
		inter += rowsNow
	}
	binary := costPosting*binScan + binJoin + costMaterialize*inter +
		costValueLookup*fetches + costSortRow*w

	// Holistic twig: streams fast-forward past documents missing any of
	// the pattern's tags, so each stream decodes only the fraction of
	// its postings living in documents where every tag occurs (bounded
	// by the rarest tag's document count). Intermediates are
	// root-to-leaf path solutions — one set per leaf — merged on shared
	// ancestor prefixes.
	minDocs := float64(cat.Tag(order[0].TagConstraint()).Docs)
	for _, pn := range order[1:] {
		if d := float64(cat.Tag(pn.TagConstraint()).Docs); d < minDocs {
			minDocs = d
		}
	}
	twigScan, leaves := 0.0, 0.0
	for i, pn := range order {
		f := 1.0
		if d := float64(cat.Tag(pn.TagConstraint()).Docs); d > 0 && minDocs < d {
			f = minDocs / d
		}
		twigScan += est[i] * f
		if len(pn.Children) == 0 {
			leaves++
		}
	}
	paths := leaves * w // per-leaf path solutions ≈ witnesses each
	twig := costPosting*twigScan + costMaterialize*paths +
		costPosting*paths + // hash-merge on shared prefixes
		costValueLookup*fetches + costSortRow*w

	cands := []MatcherCandidate{
		{Matcher: match.MatcherBinary, Cost: binary,
			Detail: fmt.Sprintf("decode %.0f candidates + materialize %.0f intermediate rows", binScan, inter)},
		{Matcher: match.MatcherTwig, Cost: twig,
			Detail: fmt.Sprintf("stream %.0f aligned postings + %.0f path solutions", twigScan, paths)},
	}
	if cands[1].Cost < cands[0].Cost {
		cands[0], cands[1] = cands[1], cands[0]
	}
	d := &MatcherDecision{
		Matcher:    cands[0].Matcher,
		Candidates: cands,
		Witnesses:  w,
		StatsUsed:  true,
	}
	if d.Matcher == match.MatcherBinary {
		d.JoinOrder = append(d.JoinOrder, order[0].Label)
		for _, i := range jorder {
			d.JoinOrder = append(d.JoinOrder, order[i].Label)
		}
	} else {
		d.JoinOrder = labels
	}
	return d
}

// edgeRows is EdgeCardinality with the child's access-path estimate in
// place of its raw posting count, so a value predicate's selectivity
// (NodeEstimate) flows through the structural simulation.
func edgeRows(cat *stats.Catalog, parentTag string, parentRows float64, childTag string, childEst float64) float64 {
	r := childEst * cat.DocOverlap(parentTag, childTag)
	if parentRows > 0 {
		if fan := cat.AvgFanout(childTag); fan > 0 {
			if lim := parentRows * fan; lim < r {
				r = lim
			}
		}
	}
	return r
}

// greedyEstOrder simulates the binary cascade's join ordering on
// estimated candidate-list sizes: among unbound nodes whose parent is
// bound, take the smallest list first (the matcher uses actual list
// lengths; the planner only has estimates).
func greedyEstOrder(order []*pattern.Node, idx map[string]int, est []float64) []int {
	bound := make([]bool, len(order))
	bound[0] = true
	seq := make([]int, 0, len(order)-1)
	for len(seq) < len(order)-1 {
		best := -1
		for i := 1; i < len(order); i++ {
			if bound[i] || !bound[idx[order[i].Parent.Label]] {
				continue
			}
			if best < 0 || est[i] < est[best] {
				best = i
			}
		}
		seq = append(seq, best)
		bound[best] = true
	}
	return seq
}

// patternPreorder lists the pattern nodes root-first (document order of
// the pattern tree), matching the matchers' own node ordering.
func patternPreorder(root *pattern.Node) []*pattern.Node {
	out := []*pattern.Node{root}
	for _, c := range root.Children {
		out = append(out, patternPreorder(c)...)
	}
	return out
}

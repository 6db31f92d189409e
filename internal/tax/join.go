package tax

import (
	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/xmltree"
)

// JoinSpec parameterizes a value-based left outer join between two
// collections, in the shape the naive translation produces (Sec. 4.1,
// Figure 4.b): a pattern is matched on each side and the join condition
// equates the contents of two bound nodes ($3.content = $6.content in
// the figure).
type JoinSpec struct {
	// LeftPattern binds nodes in each left tree; LeftLabel names the
	// node whose content is the left join value.
	LeftPattern *pattern.Tree
	LeftLabel   string
	// RightPattern binds nodes in each right tree; RightLabel names the
	// node whose content is the right join value.
	RightPattern *pattern.Tree
	RightLabel   string
	// SL lists the right-side pattern nodes emitted into the output for
	// each matching right witness, mirroring selection's adornment list
	// (labels keep their full subtrees).
	SL []Item
}

// LeftOuterJoin joins each left tree against all right trees: the
// output contains one TAX_prod_root tree per left input tree, holding a
// copy of the left tree followed by the SL subtrees of every right
// witness whose join value equals one of the left tree's join values —
// in right-witness document order. Left trees with no match still
// produce an output tree (the "outer" in left outer join); this
// reproduces Figure 8 exactly.
//
// It is JoinLeft over RightHits: a physical join that finds the right
// witnesses another way (from the value index) shares the left loop,
// and with it the output order and deduplication.
func LeftOuterJoin(left, right Collection, spec JoinSpec) Collection {
	return JoinLeft(left, JoinValues(left, spec), RightHits(right, spec))
}

// JoinHit is one right witness's contribution to the join: the SL
// subtrees it emits, in SL order. The left loop tells hits apart by
// pointer, so a witness listed under its value once is emitted at most
// once per left tree.
type JoinHit struct {
	Trees []*xmltree.Node
}

// RightHits matches the right pattern against every right tree and
// indexes the witnesses by join value, each value's hits in
// right-witness document order.
func RightHits(right Collection, spec JoinSpec) map[string][]*JoinHit {
	byValue := map[string][]*JoinHit{}
	for _, rt := range right.Trees {
		for _, rb := range match.Match(spec.RightPattern, []*xmltree.Node{rt}) {
			hit := &JoinHit{}
			for _, it := range spec.SL {
				if n := rb[it.Label]; n != nil {
					hit.Trees = append(hit.Trees, n.Clone())
				}
			}
			v := rb[spec.RightLabel].Content
			byValue[v] = append(byValue[v], hit)
		}
	}
	return byValue
}

// JoinValues returns each left tree's join values: vals[i] lists the
// LeftLabel contents of left tree i's witnesses, in witness order.
func JoinValues(left Collection, spec JoinSpec) [][]string {
	vals := make([][]string, len(left.Trees))
	for i, lt := range left.Trees {
		for _, lb := range match.Match(spec.LeftPattern, []*xmltree.Node{lt}) {
			vals[i] = append(vals[i], lb[spec.LeftLabel].Content)
		}
	}
	return vals
}

// JoinLeft is the join's left loop: one product tree per left tree,
// holding a copy of the tree and then, for each of its join values in
// turn, the subtrees of that value's hits not yet emitted for this
// tree. vals is JoinValues(left, spec); byValue holds the right hits.
func JoinLeft(left Collection, vals [][]string, byValue map[string][]*JoinHit) Collection {
	var out Collection
	for i, lt := range left.Trees {
		prod := xmltree.E(ProdRootTag)
		prod.Append(lt.Clone())
		seen := map[*JoinHit]bool{}
		for _, v := range vals[i] {
			for _, hit := range byValue[v] {
				if seen[hit] {
					continue
				}
				seen[hit] = true
				for _, tr := range hit.Trees {
					prod.Append(tr.Clone())
				}
			}
		}
		out.Trees = append(out.Trees, prod)
	}
	out.renumber()
	return out
}

// Stitch is the naive plan's final step: the results computed for each
// RETURN-clause argument are combined positionally — a full outer join
// on argument index — under a common root with the given tag, then
// typically renamed. parts[k][i] is argument k's result for outer
// binding i; missing entries (a shorter collection) simply contribute
// nothing, which is the "full outer" behaviour.
func Stitch(rootTag string, parts ...Collection) Collection {
	maxLen := 0
	for _, p := range parts {
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
	}
	var out Collection
	for i := 0; i < maxLen; i++ {
		root := xmltree.E(rootTag)
		for _, p := range parts {
			if i < p.Len() {
				root.Append(p.Trees[i].Clone())
			}
		}
		out.Trees = append(out.Trees, root)
	}
	out.renumber()
	return out
}

// StitchChildren behaves like Stitch but splices the *children* of each
// part's tree under the new root instead of the tree itself, which is
// what element constructors like <authorpubs>{$a}{...}</authorpubs>
// need when the parts are themselves wrapped results.
func StitchChildren(rootTag string, parts ...Collection) Collection {
	maxLen := 0
	for _, p := range parts {
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
	}
	var out Collection
	for i := 0; i < maxLen; i++ {
		root := xmltree.E(rootTag)
		for _, p := range parts {
			if i < p.Len() {
				for _, c := range p.Trees[i].Children {
					root.Append(c.Clone())
				}
			}
		}
		out.Trees = append(out.Trees, root)
	}
	out.renumber()
	return out
}

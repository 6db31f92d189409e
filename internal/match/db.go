package match

import (
	"context"
	"sort"
	"sync/atomic"

	"timber/internal/obs"
	"timber/internal/par"
	"timber/internal/pattern"
	"timber/internal/sjoin"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// DBBinding maps pattern labels to matched stored nodes, identified by
// postings (interval + record location). Obtaining a DBBinding touches
// only indices unless a predicate forces a record fetch; values are
// populated later, and only as needed (Sec. 5.3).
type DBBinding map[string]storage.Posting

// DBStats reports what a MatchKindObs call did, for experiment reporting.
type DBStats struct {
	// Candidates is the total number of index postings considered
	// across pattern nodes.
	Candidates int
	// RecordFilterFetches counts node records fetched to evaluate
	// predicates that no index could answer.
	RecordFilterFetches int
	// Witnesses is the number of bindings produced.
	Witnesses int
	// JoinOrder lists the pattern labels in the order the
	// structural-join edges were resolved: the root first, then each
	// joined node, smallest candidate list first among the nodes whose
	// parent is already bound. The witness output is identical for any
	// order; the order only changes how fast intermediate row sets
	// shrink.
	JoinOrder []string
	// PostingsScanned counts index postings decoded to serve the match.
	// For the binary cascade this equals Candidates (every candidate
	// list is materialized in full); the holistic matcher decodes only
	// the blocks its stream alignment could not skip, plus block
	// remainders.
	PostingsScanned int
	// IntermediateBindings counts partial binding rows materialized
	// between the candidate scan and the witness output: join-produced
	// rows for the binary cascade, root-to-leaf path solutions plus
	// merge rows for the holistic matcher.
	IntermediateBindings int
	// Matcher names the algorithm that produced the bindings ("binary"
	// or "twig").
	Matcher string
}

// recFields adapts a stored node record to pattern.Fields.
type recFields struct{ r *storage.NodeRecord }

func (f recFields) Tag() string     { return f.r.Tag }
func (f recFields) Content() string { return f.r.Content }
func (f recFields) Attr(name string) (string, bool) {
	for _, a := range f.r.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// matchBinary is MatchKindObs's binary branch, the strategy of
// Sec. 5.2: independently locate candidate postings for each pattern
// node from the indices, then resolve structural relationships one
// pattern edge at a time with single-pass containment joins. Candidate
// postings come from sequential index scans; the structural-join phase
// is then partitioned by document — edges never cross documents — and
// run on up to parallelism workers, and the per-document witness sets
// are merged in document order, so the output is identical for any
// parallelism. ctx is checked between candidate scans and inside the
// per-document join pool; sp gains "scan: candidates" and "sjoin:
// pattern edges" children carrying candidate, fetch, join and witness
// counts.
func matchBinary(ctx context.Context, db storage.Reader, pt *pattern.Tree, parallelism int, sp *obs.Span) ([]DBBinding, *DBStats, error) {
	// One pinned epoch for candidate scans and predicate fetches alike.
	db, release := storage.Pin(db)
	defer release()
	order := preorder(pt.Root)
	stats := &DBStats{Matcher: MatcherBinary.String()}

	// Column index by label, following pre-order positions.
	colOf := make(map[string]int, len(order))
	for i, pn := range order {
		colOf[pn.Label] = i
	}

	// Candidate postings per pattern node.
	candSp := sp.Child("scan: candidates")
	cands := make([][]storage.Posting, len(order))
	for i, pn := range order {
		if ctx != nil {
			select {
			case <-ctx.Done():
				candSp.End()
				return nil, nil, ctx.Err()
			default:
			}
		}
		cs, err := candidates(db, pn, stats)
		if err != nil {
			candSp.End()
			return nil, nil, err
		}
		if len(cs) == 0 {
			candSp.Add("candidates", int64(stats.Candidates))
			candSp.Add("record_filter_fetches", int64(stats.RecordFilterFetches))
			candSp.End()
			return nil, stats, nil // some node has no match at all
		}
		cands[i] = cs
	}
	candSp.Add("candidates", int64(stats.Candidates))
	candSp.Add("record_filter_fetches", int64(stats.RecordFilterFetches))
	candSp.End()

	// Pick the structural-join order greedily from the candidate
	// counts: always extend the edge whose new node has the fewest
	// candidates (among nodes whose parent is already bound), so the
	// intermediate row sets stay as small as the statistics allow. The
	// final sort below makes the witness output identical for every
	// order.
	jorder := greedyJoinOrder(order, colOf, cands)
	stats.JoinOrder = append(stats.JoinOrder, order[0].Label)
	for _, i := range jorder {
		stats.JoinOrder = append(stats.JoinOrder, order[i].Label)
	}

	// Partition every candidate list by document: pattern edges relate
	// nodes of one document, so each document's witnesses derive from
	// its own candidate segments alone. Documents whose segment is
	// empty for any pattern node produce no witnesses.
	docs := candidateDocs(cands[0])
	workers := par.Workers(parallelism)
	joinSp := sp.Child("sjoin: pattern edges")
	var jm *sjoin.Metrics
	if joinSp != nil {
		jm = &sjoin.Metrics{}
	}
	rowsByDoc := make([][][]storage.Posting, len(docs))
	var interm atomic.Int64
	if err := par.Do(ctx, len(docs), workers, func(k int) error {
		docCands := make([][]storage.Posting, len(order))
		for i := range cands {
			docCands[i] = docSegment(cands[i], docs[k])
			if len(docCands[i]) == 0 {
				return nil
			}
		}
		rowsByDoc[k] = matchRows(order, colOf, jorder, docCands, jm, &interm)
		return nil
	}); err != nil {
		joinSp.End()
		return nil, nil, err
	}
	stats.IntermediateBindings = int(interm.Load())

	// Merge in document order (candidate lists are (doc, start)-sorted,
	// so concatenation preserves the sequential row order).
	var rows [][]storage.Posting
	for _, rs := range rowsByDoc {
		rows = append(rows, rs...)
	}
	if jm != nil {
		joinSp.Add("joins", jm.Joins.Load())
		joinSp.Add("join_inputs", jm.Ancestors.Load()+jm.Descendants.Load())
		joinSp.Add("join_pairs", jm.Pairs.Load())
		joinSp.Add("witness_rows", int64(len(rows)))
	}
	joinSp.End()
	if len(rows) == 0 {
		return nil, stats, nil
	}

	// Sort lexicographically by node IDs in pre-order, then convert.
	sort.SliceStable(rows, func(a, b int) bool {
		for i := range order {
			x, y := rows[a][i].ID(), rows[b][i].ID()
			if x != y {
				return x.Less(y)
			}
		}
		return false
	})
	out := make([]DBBinding, len(rows))
	for r, row := range rows {
		bind := make(DBBinding, len(order))
		for i, pn := range order {
			bind[pn.Label] = row[i]
		}
		out[r] = bind
	}
	stats.Witnesses = len(out)
	sp.Add("witnesses", int64(len(out)))
	return out, stats, nil
}

// greedyJoinOrder sequences the non-root pattern nodes for the
// edge-at-a-time join: among the nodes whose parent is already bound,
// always take the one with the fewest candidates (pre-order position
// breaks ties, keeping the order deterministic). The root is always
// bound first — it is the only parentless node — so every node is
// eventually placed.
func greedyJoinOrder(order []*pattern.Node, colOf map[string]int, cands [][]storage.Posting) []int {
	bound := make([]bool, len(order))
	bound[0] = true
	seq := make([]int, 0, len(order)-1)
	for len(seq) < len(order)-1 {
		best := -1
		for i := 1; i < len(order); i++ {
			if bound[i] || !bound[colOf[order[i].Parent.Label]] {
				continue
			}
			if best < 0 || len(cands[i]) < len(cands[best]) {
				best = i
			}
		}
		seq = append(seq, best)
		bound[best] = true
	}
	return seq
}

// matchRows runs the edge-at-a-time structural-join pipeline of
// Sec. 5.2 over one document's candidate segments: seed rows with the
// root candidates, then extend one pattern edge at a time, in jorder,
// with single-pass containment joins. rows[r][i] is the posting bound
// to order[i] in row r. Pure in-memory computation — no database
// access — so per-document invocations run concurrently without
// coordination.
func matchRows(order []*pattern.Node, colOf map[string]int, jorder []int, cands [][]storage.Posting, jm *sjoin.Metrics, interm *atomic.Int64) [][]storage.Posting {
	rows := make([][]storage.Posting, len(cands[0]))
	for r, p := range cands[0] {
		row := make([]storage.Posting, len(order))
		row[0] = p
		rows[r] = row
	}
	for _, i := range jorder {
		pn := order[i]
		pcol := colOf[pn.Parent.Label]

		// Distinct, sorted parent postings currently bound.
		parents := distinctSorted(rows, pcol)
		pIvs := make([]xmltree.Interval, len(parents))
		for k, p := range parents {
			pIvs[k] = p.Interval
		}
		cIvs := make([]xmltree.Interval, len(cands[i]))
		for k, c := range cands[i] {
			cIvs[k] = c.Interval
		}
		axis := sjoin.AncestorDescendant
		if pn.Axis == pattern.Child {
			axis = sjoin.ParentChild
		}
		pairs := sjoin.StackTree(pIvs, cIvs, axis, jm)

		// children[parentID] lists matching candidate indices in
		// document order.
		children := make(map[xmltree.NodeID][]int, len(parents))
		for _, pr := range pairs {
			id := parents[pr.A].ID()
			children[id] = append(children[id], pr.D)
		}
		var next [][]storage.Posting
		for _, row := range rows {
			for _, ci := range children[row[pcol].ID()] {
				nr := make([]storage.Posting, len(order))
				copy(nr, row)
				nr[i] = cands[i][ci]
				next = append(next, nr)
			}
		}
		rows = next
		if interm != nil {
			interm.Add(int64(len(next)))
		}
		if len(rows) == 0 {
			return nil
		}
	}
	return rows
}

// candidateDocs lists the distinct documents of a (doc, start)-sorted
// posting list, in document order.
func candidateDocs(posts []storage.Posting) []xmltree.DocID {
	var docs []xmltree.DocID
	for i := 0; i < len(posts); {
		d := posts[i].Interval.Doc
		docs = append(docs, d)
		for i < len(posts) && posts[i].Interval.Doc == d {
			i++
		}
	}
	return docs
}

// docSegment returns the contiguous slice of a (doc, start)-sorted
// posting list belonging to doc.
func docSegment(posts []storage.Posting, doc xmltree.DocID) []storage.Posting {
	lo := sort.Search(len(posts), func(i int) bool { return posts[i].Interval.Doc >= doc })
	hi := sort.Search(len(posts), func(i int) bool { return posts[i].Interval.Doc > doc })
	return posts[lo:hi]
}

// candidates produces the sorted candidate postings for one pattern
// node, preferring index-only access paths.
func candidates(db storage.Reader, pn *pattern.Node, stats *DBStats) ([]storage.Posting, error) {
	tag := pn.TagConstraint()
	var posts []storage.Posting
	var covered []pattern.Predicate // predicates the access path has answered
	switch {
	case tag != "" && contentEqOf(pn) != nil && db.HasValueIndex():
		ceq := contentEqOf(pn)
		var err error
		posts, err = db.ValuePostings(tag, ceq.Value)
		if err != nil {
			return nil, err
		}
		covered = []pattern.Predicate{pattern.TagEq{Tag: tag}, *ceq}
	case tag != "":
		var err error
		posts, err = db.TagPostings(tag)
		if err != nil {
			return nil, err
		}
		covered = []pattern.Predicate{pattern.TagEq{Tag: tag}}
	default:
		// No index applies: scan every document (the paper's "simplest
		// way ... scan the entire database" fallback).
		for _, d := range db.Documents() {
			err := db.ScanDocument(d.ID, func(rec *storage.NodeRecord) error {
				if pn.NodeMatches(recFields{rec}) {
					// ScanDocument does not expose the RID; recover it
					// via a locator probe only when records pass.
					p, err := postingFor(db, rec)
					if err != nil {
						return err
					}
					posts = append(posts, p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		stats.Candidates += len(posts)
		stats.PostingsScanned += len(posts)
		return posts, nil
	}
	stats.Candidates += len(posts)
	stats.PostingsScanned += len(posts)

	rest := remaining(pn.Preds, covered)
	if len(rest) == 0 {
		return posts, nil
	}
	// Residual predicates need the records.
	var filtered []storage.Posting
	for _, p := range posts {
		rec, err := db.GetNodeAt(p.RID)
		if err != nil {
			return nil, err
		}
		stats.RecordFilterFetches++
		if predsMatch(rest, recFields{rec}) {
			filtered = append(filtered, p)
		}
	}
	return filtered, nil
}

func contentEqOf(pn *pattern.Node) *pattern.ContentEq {
	for _, p := range pn.Preds {
		if ceq, ok := p.(pattern.ContentEq); ok && len(ceq.Value) > 0 {
			return &ceq
		}
	}
	return nil
}

func remaining(all, covered []pattern.Predicate) []pattern.Predicate {
	var rest []pattern.Predicate
	for _, p := range all {
		skip := false
		for _, c := range covered {
			if p == c {
				skip = true
				break
			}
		}
		if !skip {
			rest = append(rest, p)
		}
	}
	return rest
}

func predsMatch(preds []pattern.Predicate, f pattern.Fields) bool {
	for _, p := range preds {
		if !p.Matches(f) {
			return false
		}
	}
	return true
}

func postingFor(db storage.Reader, rec *storage.NodeRecord) (storage.Posting, error) {
	rid, err := db.LocateRID(rec.ID())
	if err != nil {
		return storage.Posting{}, err
	}
	return storage.Posting{Interval: rec.Interval, RID: rid}, nil
}

// distinctSorted extracts the distinct postings of one column, sorted by
// node ID — the input form the structural join requires.
func distinctSorted(rows [][]storage.Posting, col int) []storage.Posting {
	out := make([]storage.Posting, 0, len(rows))
	seen := make(map[xmltree.NodeID]bool, len(rows))
	for _, row := range rows {
		id := row[col].ID()
		if !seen[id] {
			seen[id] = true
			out = append(out, row[col])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Less(out[j].ID()) })
	return out
}

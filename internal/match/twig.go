package match

import (
	"context"
	"sort"

	"timber/internal/obs"
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// twig.go implements the holistic twig-join matcher (TwigStack family,
// after Bruno/Koudas/Srivastava): one posting stream per pattern node,
// driven directly off the tag/value B+tree cursors, and one stack per
// pattern node whose entries encode the partial root-to-leaf paths
// discovered so far. Per-node candidate lists are never materialized —
// the streams are consumed in a single coordinated document-order pass,
// with three skip mechanisms feeding TagCursor.Seek:
//
//   - document alignment: all streams fast-forward to the next document
//     every stream can inhabit (whole posting blocks of skipped
//     documents stay undecoded);
//   - the classic getNext skip: an internal node's postings that end
//     before the latest child-stream head cannot contain every branch
//     and are dropped;
//   - the dead-start skip: when a node's parent stack is empty, its
//     postings at or before the parent stream's head start can never
//     acquire an ancestor and are seeked over.
//
// Phase one emits root-to-leaf path solutions at each leaf push; phase
// two merge-joins the per-leaf path sets on their shared ancestor
// prefix into full witness rows. Rows sort lexicographically by
// pre-order node IDs within each document, and documents ascend — the
// exact binding sequence of the binary cascade, which is the package's
// hard equivalence invariant.

// infStart is the sentinel start for a stream exhausted within the
// current document (any real start is below it).
const infStart = uint64(1) << 40

// stackEntry is one partial-path element: a posting plus the index of
// the parent stack's top at push time. Entries at or below ptr on the
// parent stack are exactly the ancestors of this posting that were
// live when it was pushed — the chain the path enumeration follows.
type stackEntry struct {
	post storage.Posting
	ptr  int
}

// twigStream is one pattern node's posting source: a tag-index cursor
// (value-index postings for content-pinned nodes are served from a
// slice; both look the same to the matcher), with residual predicates
// applied on pull.
type twigStream struct {
	cur   *storage.TagCursor // nil when posts is the source
	posts []storage.Posting  // value-index (or test) postings
	pos   int
	rest  []pattern.Predicate // predicates needing the node record
	db    storage.Reader
	stats *DBStats

	head        storage.Posting
	ok          bool
	err         error
	prevDecoded int
}

// advance pulls the next posting that passes the residual predicates
// into head; ok goes false at end of stream.
func (s *twigStream) advance() {
	for {
		var p storage.Posting
		if s.cur != nil {
			var ok bool
			p, ok = s.cur.Next()
			d := s.cur.PostingsDecoded()
			s.stats.PostingsScanned += d - s.prevDecoded
			s.prevDecoded = d
			if !ok {
				s.ok = false
				if err := s.cur.Err(); err != nil && s.err == nil {
					s.err = err
				}
				return
			}
		} else {
			if s.pos >= len(s.posts) {
				s.ok = false
				return
			}
			p = s.posts[s.pos]
			s.pos++
		}
		s.stats.Candidates++
		if len(s.rest) > 0 {
			rec, err := s.db.GetNodeAt(p.RID)
			if err != nil {
				s.err = err
				s.ok = false
				return
			}
			s.stats.RecordFilterFetches++
			if !predsMatch(s.rest, recFields{rec}) {
				continue
			}
		}
		s.head = p
		s.ok = true
		return
	}
}

// seekTo fast-forwards the stream so head is the first posting at or
// after (doc, start); a head already there is kept (never rewinds).
func (s *twigStream) seekTo(doc xmltree.DocID, start uint32) {
	if !s.ok {
		return
	}
	iv := s.head.Interval
	if iv.Doc > doc || (iv.Doc == doc && iv.Start >= start) {
		return
	}
	if s.cur != nil {
		s.cur.Seek(doc, start)
	} else {
		s.pos += sort.Search(len(s.posts)-s.pos, func(i int) bool {
			iv := s.posts[s.pos+i].Interval
			return iv.Doc > doc || (iv.Doc == doc && iv.Start >= start)
		})
	}
	s.advance()
}

func (s *twigStream) close() {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
}

// twigMatcher streams a pattern's witnesses with the holistic twig
// join. It holds a snapshot pin and open cursors until Close.
type twigMatcher struct {
	db      storage.Reader
	release func()
	order   []*pattern.Node
	parentI []int   // parent's pre-order index (-1 for the root)
	childI  [][]int // children's pre-order indexes
	leaves  []int   // leaf pre-order indexes, in pre-order
	pathOf  [][]int // per leaves[i]: pre-order indexes root → leaf

	streams []*twigStream
	stacks  [][]stackEntry
	paths   [][][]storage.Posting // per leaves[i]: current doc's path solutions
	stats   *DBStats
	err     error
	done    bool

	buf []DBBinding // current document's witnesses, in output order
	pos int
}

// matchTwig is MatchKindObs's holistic branch: it drains a twig matcher
// into the full witness slice, checking ctx every 1024 bindings. The
// caller has checked TwigApplicable.
func matchTwig(ctx context.Context, db storage.Reader, pt *pattern.Tree, sp *obs.Span) ([]DBBinding, *DBStats, error) {
	m, err := openTwig(db, pt)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	twigSp := sp.Child("twig: pattern match")
	var out []DBBinding
	for {
		if ctx != nil && len(out)%1024 == 0 {
			select {
			case <-ctx.Done():
				twigSp.End()
				return nil, nil, ctx.Err()
			default:
			}
		}
		b, ok := m.Next()
		if !ok {
			break
		}
		out = append(out, b)
	}
	if err := m.Err(); err != nil {
		twigSp.End()
		return nil, nil, err
	}
	stats := m.Stats()
	twigSp.Add("candidates", int64(stats.Candidates))
	twigSp.Add("postings_scanned", int64(stats.PostingsScanned))
	twigSp.Add("record_filter_fetches", int64(stats.RecordFilterFetches))
	twigSp.Add("path_solutions", int64(stats.IntermediateBindings))
	twigSp.End()
	sp.Add("witnesses", int64(len(out)))
	if cerr := m.Close(); cerr != nil {
		return nil, nil, cerr
	}
	return out, stats, nil
}

// openTwig builds the streams and primes them. The caller has checked
// TwigApplicable.
func openTwig(db storage.Reader, pt *pattern.Tree) (*twigMatcher, error) {
	db, release := storage.Pin(db)
	order := preorder(pt.Root)
	stats := &DBStats{Matcher: MatcherTwig.String()}
	colOf := make(map[string]int, len(order))
	for i, pn := range order {
		colOf[pn.Label] = i
	}
	m := &twigMatcher{
		db:      db,
		release: release,
		order:   order,
		parentI: make([]int, len(order)),
		childI:  make([][]int, len(order)),
		streams: make([]*twigStream, len(order)),
		stacks:  make([][]stackEntry, len(order)),
		stats:   stats,
	}
	for i, pn := range order {
		if pn.Parent == nil {
			m.parentI[i] = -1
		} else {
			p := colOf[pn.Parent.Label]
			m.parentI[i] = p
			m.childI[p] = append(m.childI[p], i)
		}
		// The streams are consumed together in document order; JoinOrder
		// reports the pattern's pre-order as the (only) order.
		stats.JoinOrder = append(stats.JoinOrder, pn.Label)
	}
	for i := range order {
		if len(m.childI[i]) == 0 {
			var path []int
			for q := i; q >= 0; q = m.parentI[q] {
				path = append(path, q)
			}
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			m.leaves = append(m.leaves, i)
			m.pathOf = append(m.pathOf, path)
		}
	}
	m.paths = make([][][]storage.Posting, len(m.leaves))

	for i, pn := range order {
		tag := pn.TagConstraint()
		s := &twigStream{db: db, stats: stats}
		var covered []pattern.Predicate
		if ceq := contentEqOf(pn); ceq != nil && db.HasValueIndex() {
			posts, err := db.ValuePostings(tag, ceq.Value)
			if err != nil {
				m.closeStreams()
				release()
				return nil, err
			}
			s.posts = posts
			stats.PostingsScanned += len(posts)
			covered = []pattern.Predicate{pattern.TagEq{Tag: tag}, *ceq}
		} else {
			s.cur = db.OpenTagCursor(tag)
			covered = []pattern.Predicate{pattern.TagEq{Tag: tag}}
		}
		s.rest = remaining(pn.Preds, covered)
		m.streams[i] = s
		s.advance()
		if s.err != nil {
			err := s.err
			m.closeStreams()
			release()
			return nil, err
		}
	}
	return m, nil
}

func (m *twigMatcher) closeStreams() {
	for _, s := range m.streams {
		if s != nil {
			s.close()
		}
	}
}

// Next returns the next witness binding in the global output order.
func (m *twigMatcher) Next() (DBBinding, bool) {
	for {
		if m.pos < len(m.buf) {
			b := m.buf[m.pos]
			m.pos++
			m.stats.Witnesses++
			return b, true
		}
		if m.done || m.err != nil {
			return nil, false
		}
		m.nextDoc()
	}
}

// Stats returns the access counters; Witnesses counts the bindings
// returned so far.
func (m *twigMatcher) Stats() *DBStats { return m.stats }

// Err reports the first error a stream hit, if any.
func (m *twigMatcher) Err() error { return m.err }

// Close releases the matcher's cursors and snapshot pin. Idempotent.
func (m *twigMatcher) Close() error {
	m.closeStreams()
	if m.release != nil {
		m.release()
		m.release = nil
	}
	m.done = true
	return m.err
}

// nextDoc aligns every stream on the next document all of them inhabit
// and runs the per-document twig join; streams left inside the document
// afterwards are seeked past it. Alignment is where entire documents
// are skipped: a stream whose head is behind the frontier seeks
// directly to it, jumping posting blocks without decoding.
func (m *twigMatcher) nextDoc() {
	for {
		var d xmltree.DocID
		for _, s := range m.streams {
			if !s.ok {
				if s.err != nil && m.err == nil {
					m.err = s.err
				}
				m.done = true
				return
			}
			if s.head.Interval.Doc > d {
				d = s.head.Interval.Doc
			}
		}
		aligned := true
		for _, s := range m.streams {
			if s.head.Interval.Doc < d {
				s.seekTo(d, 0)
				aligned = false
			}
		}
		if !aligned {
			continue
		}
		m.matchDoc(d)
		for _, s := range m.streams {
			if s.ok && s.head.Interval.Doc == d {
				s.seekTo(d+1, 0)
			}
		}
		return
	}
}

// inDoc reports whether node q's stream head is inside document d.
func (m *twigMatcher) inDoc(q int, d xmltree.DocID) bool {
	s := m.streams[q]
	return s.ok && s.head.Interval.Doc == d
}

// startOrInf is node q's stream head start, or infStart when the stream
// is exhausted within document d.
func (m *twigMatcher) startOrInf(q int, d xmltree.DocID) uint64 {
	if !m.inDoc(q, d) {
		return infStart
	}
	return uint64(m.streams[q].head.Interval.Start)
}

// clean pops stack entries that end before start — they cannot be
// ancestors of any posting from here on.
func (m *twigMatcher) clean(i int, start uint32) {
	s := m.stacks[i]
	for len(s) > 0 && s[len(s)-1].post.Interval.End < start {
		s = s[:len(s)-1]
	}
	m.stacks[i] = s
}

// getNext returns the pattern node whose stream head should be acted on
// next: a node all of whose child subtrees can still extend it, with
// the minimal start among them (TwigStack's getNext). Exhausted
// subtrees surface as a node with an in-doc-exhausted stream, which
// ends the document loop.
func (m *twigMatcher) getNext(q int, d xmltree.DocID) int {
	if len(m.childI[q]) == 0 {
		return q
	}
	nmin := -1
	var minStart, maxStart uint64
	for _, qi := range m.childI[q] {
		ni := m.getNext(qi, d)
		if ni != qi {
			return ni
		}
		st := m.startOrInf(qi, d)
		if nmin < 0 || st < minStart {
			nmin, minStart = qi, st
		}
		if st > maxStart {
			maxStart = st
		}
	}
	// Drop q's postings that end before the latest child head: they
	// cannot contain a node from every branch. With a branch exhausted
	// in this document no posting can, so drain q past the document.
	if maxStart == infStart {
		if m.inDoc(q, d) {
			m.streams[q].seekTo(d+1, 0)
		}
	} else {
		for m.inDoc(q, d) && uint64(m.streams[q].head.Interval.End) < maxStart {
			m.streams[q].advance()
		}
	}
	if m.startOrInf(q, d) < minStart {
		return q
	}
	return nmin
}

// matchDoc runs the two twig phases over one document: the stack-driven
// stream pass emitting path solutions, then the merge of per-leaf path
// sets into full rows, sorted into the binary cascade's output order.
func (m *twigMatcher) matchDoc(d xmltree.DocID) {
	m.buf = m.buf[:0]
	m.pos = 0
	for i := range m.stacks {
		m.stacks[i] = m.stacks[i][:0]
	}
	for i := range m.paths {
		m.paths[i] = nil
	}

	for m.err == nil {
		// End of document: every leaf stream exhausted means no further
		// path solutions can be emitted.
		allDone := true
		for _, l := range m.leaves {
			if m.inDoc(l, d) {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		q := m.getNext(0, d)
		if !m.inDoc(q, d) {
			break // the whole relevant frontier is exhausted
		}
		hp := m.streams[q].head
		p := m.parentI[q]
		if p >= 0 {
			m.clean(p, hp.Interval.Start)
		}
		if p < 0 || len(m.stacks[p]) > 0 {
			m.clean(q, hp.Interval.Start)
			ptr := -1
			if p >= 0 {
				ptr = len(m.stacks[p]) - 1
			}
			m.stacks[q] = append(m.stacks[q], stackEntry{post: hp, ptr: ptr})
			m.streams[q].advance()
			if len(m.childI[q]) == 0 {
				m.emitPaths(q)
				m.stacks[q] = m.stacks[q][:len(m.stacks[q])-1]
			}
		} else {
			// Dead start: no live ancestor on the parent stack, and any
			// future one begins at or after the parent head's start — a
			// strict descendant must start strictly later than that.
			if m.inDoc(p, d) {
				m.streams[q].seekTo(d, m.streams[p].head.Interval.Start+1)
			} else {
				m.streams[q].seekTo(d+1, 0)
			}
		}
	}
	if m.err != nil {
		return
	}
	m.mergeDoc()
}

// emitPaths enumerates the root-to-leaf path solutions ending at the
// just-pushed top of leaf q's stack: every chain of live ancestor
// entries (indexes at or below the recorded parent pointers) whose
// consecutive intervals satisfy the pattern edges.
func (m *twigMatcher) emitPaths(q int) {
	li := -1
	for i, l := range m.leaves {
		if l == q {
			li = i
			break
		}
	}
	path := m.pathOf[li]
	top := m.stacks[q][len(m.stacks[q])-1]
	sol := make([]storage.Posting, len(path))
	sol[len(path)-1] = top.post
	var rec func(k, maxIdx int)
	rec = func(k, maxIdx int) {
		if k < 0 {
			m.paths[li] = append(m.paths[li], append([]storage.Posting(nil), sol...))
			m.stats.IntermediateBindings++
			return
		}
		node := path[k]
		child := m.order[path[k+1]]
		st := m.stacks[node]
		if maxIdx >= len(st) {
			maxIdx = len(st) - 1
		}
		for i := 0; i <= maxIdx; i++ {
			if !edgeOK(st[i].post.Interval, sol[k+1].Interval, child.Axis) {
				continue
			}
			sol[k] = st[i].post
			rec(k-1, st[i].ptr)
		}
	}
	rec(len(path)-2, top.ptr)
}

// edgeOK checks one pattern edge between candidate intervals: strict
// containment for descendant edges (equal starts mean the same node in
// a tree, which the strictness excludes — matching the binary join's
// same-node rule), plus the level constraint for child edges.
func edgeOK(anc, desc xmltree.Interval, axis pattern.Axis) bool {
	if axis == pattern.Child {
		return anc.ParentOf(desc)
	}
	return anc.Contains(desc)
}

// mergeDoc joins the per-leaf path-solution sets on their shared
// ancestor prefixes into full witness rows and stages them in output
// order. Leaves are taken in pattern pre-order; the shared prefix of a
// later leaf's path is always a non-empty prefix (bound nodes form a
// subtree containing the root), so the hash join keys are well defined.
func (m *twigMatcher) mergeDoc() {
	if len(m.paths[0]) == 0 {
		return
	}
	width := len(m.order)
	bound := make([]bool, width)
	rows := make([][]storage.Posting, 0, len(m.paths[0]))
	for _, sol := range m.paths[0] {
		row := make([]storage.Posting, width)
		for k, col := range m.pathOf[0] {
			row[col] = sol[k]
		}
		rows = append(rows, row)
	}
	for _, col := range m.pathOf[0] {
		bound[col] = true
	}
	for li := 1; li < len(m.leaves) && len(rows) > 0; li++ {
		path := m.pathOf[li]
		shared := 0
		for shared < len(path) && bound[path[shared]] {
			shared++
		}
		prefix := path[:shared]
		idx := make(map[string][]int, len(rows))
		for r, row := range rows {
			key := startKey(func(k int) uint32 { return row[prefix[k]].Interval.Start }, shared)
			idx[key] = append(idx[key], r)
		}
		var next [][]storage.Posting
		for _, sol := range m.paths[li] {
			key := startKey(func(k int) uint32 { return sol[k].Interval.Start }, shared)
			for _, r := range idx[key] {
				nr := make([]storage.Posting, width)
				copy(nr, rows[r])
				for k := shared; k < len(path); k++ {
					nr[path[k]] = sol[k]
				}
				next = append(next, nr)
			}
		}
		rows = next
		m.stats.IntermediateBindings += len(next)
		for _, col := range path {
			bound[col] = true
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i := range m.order {
			x, y := rows[a][i].ID(), rows[b][i].ID()
			if x != y {
				return x.Less(y)
			}
		}
		return false
	})
	for _, row := range rows {
		bind := make(DBBinding, width)
		for i, pn := range m.order {
			bind[pn.Label] = row[i]
		}
		m.buf = append(m.buf, bind)
	}
}

// startKey packs n node starts into a hash-join key (the document is
// fixed within a merge, so starts identify nodes).
func startKey(at func(int) uint32, n int) string {
	b := make([]byte, 0, 4*n)
	for k := 0; k < n; k++ {
		s := at(k)
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(b)
}

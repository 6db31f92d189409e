package exec

import (
	"sort"

	"timber/internal/pagestore"
	"timber/internal/storage"
	"timber/internal/tax"
	"timber/internal/xmltree"
)

// groupSortIter is the blocking GROUPBY operator: it drains its input,
// assigns each row its arrival order (the stable-sort tie-breaker),
// and sorts by (grouping value, member ordering value, arrival).
// Downstream operators see runs of equal grouping values — the groups
// — in ascending value order, exactly the sort of Sec. 5.3.
//
// Memory: with SortMemRows unset the sort is in-memory (identifier
// rows only; values were never materialized). With a budget, full
// buffers are sorted and spilled as encoded-row runs through the
// storage spool — the spilled pages compete with base data in the
// buffer pool, the TIMBER intermediate-collection cost model — and
// Next serves a k-way merge over the runs. Each open run cursor pins
// one pool frame, so no merge reads more runs than the spool's fan-in
// (half a pool shard): more runs are first merged, fan-in at a time,
// into new runs. Every path emits the byte-identical row order: the
// comparator is a total order (arrival breaks every tie), so how runs
// are grouped into merges cannot change it.
type groupSortIter struct {
	child   Iterator
	db      storage.Reader
	ordVals func() map[xmltree.NodeID]string
	desc    bool
	memRows int
	counts  *opCounts

	opened bool
	ov     map[xmltree.NodeID]string
	buf    []Row
	// spill state
	spool   *storage.Spool
	runs    []*storage.SpoolRun
	spilled int       // runs the input spilled, before any cascade pass
	merge   *runMerge // final merge over runs; the in-memory tail joins in Next
	// in-memory serve state
	pos  int
	next int64 // arrival counter
	enc  []byte
}

func newGroupSort(child Iterator, db storage.Reader, ordVals func() map[xmltree.NodeID]string, desc bool, memRows int, counts *opCounts) *groupSortIter {
	return &groupSortIter{child: child, db: db, ordVals: ordVals, desc: desc, memRows: memRows, counts: counts}
}

// less is the total sort order: grouping value, then the member's
// ordering value under the requested direction, then arrival order.
func (g *groupSortIter) less(a, b *Row) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if g.ov != nil {
		c := tax.CompareValues(g.ov[a.Member.ID()], g.ov[b.Member.ID()])
		if g.desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.Ord < b.Ord
}

func (g *groupSortIter) Open() error {
	if g.opened {
		return nil
	}
	g.opened = true
	if err := g.child.Open(); err != nil {
		return err
	}
	if g.ordVals != nil {
		g.ov = g.ordVals()
	}
	b := getBatch(0)
	defer putBatch(b)
	for {
		if err := g.child.Next(b); err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			break
		}
		g.counts.in(len(b.Rows))
		// Bulk-append the batch, then stamp arrival orders in a second
		// pass — one grow decision per batch instead of per row.
		base := len(g.buf)
		g.buf = append(g.buf, b.Rows...)
		for i := base; i < len(g.buf); i++ {
			g.buf[i].Ord = g.next
			g.next++
		}
		if g.memRows > 0 && len(g.buf) >= g.memRows {
			if err := g.spillRun(); err != nil {
				return err
			}
		}
	}
	sort.Slice(g.buf, func(i, j int) bool { return g.less(&g.buf[i], &g.buf[j]) })
	if len(g.runs) > 0 {
		return g.openMerge()
	}
	return nil
}

// spillRun sorts the buffered rows and writes them as one run.
func (g *groupSortIter) spillRun() error {
	if g.spool == nil {
		g.spool = g.db.NewSpool()
	}
	sort.Slice(g.buf, func(i, j int) bool { return g.less(&g.buf[i], &g.buf[j]) })
	run, err := g.spool.NewRun()
	if err != nil {
		return err
	}
	for _, r := range g.buf {
		g.enc = encodeRow(g.enc[:0], r)
		if err := run.Append(g.enc); err != nil {
			return err
		}
	}
	g.runs = append(g.runs, run)
	g.spilled++
	g.buf = g.buf[:0]
	return nil
}

// openMerge prepares the final merge: cascade passes first bring the
// run count within the spool's fan-in, then one cursor per remaining
// run. The in-memory tail (already sorted) merges in Next.
func (g *groupSortIter) openMerge() error {
	fanIn := g.spool.MergeFanIn()
	for len(g.runs) > fanIn {
		out, err := g.spool.NewRun()
		if err != nil {
			return err
		}
		if err := g.mergeInto(g.runs[:fanIn], out); err != nil {
			return err
		}
		g.runs = append(g.runs[fanIn:len(g.runs):len(g.runs)], out)
	}
	m, err := openRunMerge(g.runs)
	g.merge = m
	return err
}

// mergeInto merges runs into out and frees them.
func (g *groupSortIter) mergeInto(runs []*storage.SpoolRun, out *storage.SpoolRun) error {
	m, err := openRunMerge(runs)
	if err != nil {
		m.close()
		return err
	}
	for {
		i := m.min(g.less)
		if i < 0 {
			break
		}
		g.enc = encodeRow(g.enc[:0], m.heads[i])
		if err := out.Append(g.enc); err != nil {
			m.close()
			return err
		}
		if err := m.advance(i); err != nil {
			m.close()
			return err
		}
	}
	if err := m.close(); err != nil {
		return err
	}
	for _, r := range runs {
		if err := r.Free(); err != nil {
			return err
		}
	}
	return nil
}

func (g *groupSortIter) Next(b *Batch) error {
	b.Reset()
	if g.merge == nil {
		n := len(g.buf) - g.pos
		if room := cap(b.Rows) - len(b.Rows); n > room {
			n = room
		}
		b.Rows = append(b.Rows, g.buf[g.pos:g.pos+n]...)
		g.pos += n
	} else {
		for !b.full() {
			i := g.merge.min(g.less)
			tail := g.pos < len(g.buf)
			if i < 0 && !tail {
				break
			}
			if i < 0 || tail && g.less(&g.buf[g.pos], &g.merge.heads[i]) {
				b.Rows = append(b.Rows, g.buf[g.pos])
				g.pos++
				continue
			}
			b.Rows = append(b.Rows, g.merge.heads[i])
			if err := g.merge.advance(i); err != nil {
				return err
			}
		}
	}
	g.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		g.counts.batch()
	}
	return nil
}

func (g *groupSortIter) Close() error {
	err := g.child.Close()
	if g.merge != nil {
		if cerr := g.merge.close(); err == nil {
			err = cerr
		}
		g.merge = nil
	}
	if g.spool != nil {
		if serr := g.spool.Close(); err == nil {
			err = serr
		}
		g.spool = nil
	}
	return err
}

// runMerge is a k-way merge over sorted spool runs: one open cursor —
// one pinned frame — and one head row per run.
type runMerge struct {
	cursors []*pagestore.HeapCursor
	heads   []Row
	ok      []bool
}

// openRunMerge opens a cursor per run and primes the heads. On error
// the returned merge still holds the cursors opened so far; close it.
func openRunMerge(runs []*storage.SpoolRun) (*runMerge, error) {
	m := &runMerge{
		cursors: make([]*pagestore.HeapCursor, len(runs)),
		heads:   make([]Row, len(runs)),
		ok:      make([]bool, len(runs)),
	}
	for i, run := range runs {
		m.cursors[i] = run.Open()
		if err := m.advance(i); err != nil {
			return m, err
		}
	}
	return m, nil
}

// advance refills run i's head.
func (m *runMerge) advance(i int) error {
	rec, ok := m.cursors[i].Next()
	if !ok {
		m.ok[i] = false
		return m.cursors[i].Err()
	}
	r, err := decodeRow(rec)
	if err != nil {
		return err
	}
	m.heads[i], m.ok[i] = r, true
	return nil
}

// min returns the run whose head sorts first, or -1 when every run is
// exhausted.
func (m *runMerge) min(less func(a, b *Row) bool) int {
	best := -1
	for i := range m.heads {
		if m.ok[i] && (best < 0 || less(&m.heads[i], &m.heads[best])) {
			best = i
		}
	}
	return best
}

// close closes every cursor, returning the first error.
func (m *runMerge) close() error {
	var err error
	for _, c := range m.cursors {
		if c == nil {
			continue
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	m.cursors = nil
	return err
}

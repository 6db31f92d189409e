package exec

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"timber/internal/pagestore"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// This file defines the streaming executor's data plane: fixed-size
// batches of identifier-only rows flowing through pull-based operator
// iterators (Sec. 5.3's "identifier-only processing with late value
// materialization", in Volcano form). A Row never carries node content
// except the populated grouping value — output values are fetched by
// the late-materialize sink, only for rows that survive to output.

// rowKind tags a row's role in the stream. Binding rows flow through
// the match pipeline; group and count rows appear only downstream of
// the stitching/aggregation operators, shaping the output.
type rowKind uint8

const (
	// rowBinding is a (member, aux) identifier pair: aux is the current
	// path position (a grouping-basis leaf, a value leaf, ...).
	rowBinding rowKind = iota
	// rowGroup opens a new output group; Key holds the grouping value.
	rowGroup
	// rowCount carries a group's aggregate; Ord holds the count.
	rowCount
)

// Row is one identifier-only tuple. Postings are node identifiers plus
// record locations — no content. Key is the populated grouping value
// (the one value Sec. 5.3 populates early); Ord is the row's global
// arrival order, the sort's final tie-breaker.
type Row struct {
	Kind   rowKind
	Member storage.Posting
	Aux    storage.Posting
	HasAux bool
	Key    string
	Ord    int64
}

// Batch is a reusable fixed-capacity slice of rows. Operators fill the
// caller's batch up to capacity; an empty batch after Next signals
// end-of-stream.
type Batch struct {
	Rows []Row
}

// defaultBatchSize is the rows-per-batch default; Options.BatchSize
// overrides it.
const defaultBatchSize = 256

// batchPool recycles row slices across operators and exchange
// fragments. Reuse is strictly capacity-exact: a pooled batch whose
// slice does not match the requested capacity gets a fresh slice
// rather than a resized one, so batch-count telemetry (and therefore
// result byte-identity across parallelism levels) never depends on
// what happened to be in the pool.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = defaultBatchSize
	}
	b := batchPool.Get().(*Batch)
	if cap(b.Rows) != capacity {
		b.Rows = make([]Row, 0, capacity)
	}
	return b
}

// putBatch zeroes the rows — dropping key-string and posting
// references so pooled memory doesn't pin them — and returns the batch
// for reuse.
func putBatch(b *Batch) {
	rows := b.Rows[:cap(b.Rows)]
	clear(rows)
	b.Rows = rows[:0]
	batchPool.Put(b)
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

func (b *Batch) full() bool { return len(b.Rows) == cap(b.Rows) }

// Iterator is the physical-operator interface of the streaming
// executor: a pull-based Volcano iterator over ID batches. Open
// prepares the operator (opening its inputs first; Open is
// idempotent, so a driver may also open lower stages explicitly to
// attribute their work to a trace span). Next fills the caller's batch
// with up to cap(b.Rows) rows; an empty batch means the stream is
// exhausted. Close releases resources (cursors, spill regions) and is
// idempotent; it must be called on every opened iterator, including
// after errors.
type Iterator interface {
	Open() error
	Next(b *Batch) error
	Close() error
}

// opCounts is the per-operator observability record: rows in, rows
// out and batches produced. Fragment copies are summed by operator
// name after the exchange joins its workers, then folded into the
// trace as per-operator report spans.
type opCounts struct {
	name    string
	rowsIn  int64
	rowsOut int64
	batches int64
}

func (c *opCounts) in(n int) {
	if c != nil {
		c.rowsIn += int64(n)
	}
}

func (c *opCounts) out(n int) {
	if c != nil {
		c.rowsOut += int64(n)
	}
}

func (c *opCounts) batch() {
	if c != nil {
		c.batches++
	}
}

func (c *opCounts) add(o *opCounts) {
	c.rowsIn += o.rowsIn
	c.rowsOut += o.rowsOut
	c.batches += o.batches
}

// rowReader adapts a batch iterator to demand-driven pulls for
// operators that consume at their own pace (chunked joins, merges).
// It owns one pooled batch and refills it on demand; the owning
// operator returns the batch to the pool by calling release from its
// Close.
type rowReader struct {
	it   Iterator
	b    *Batch
	pos  int
	done bool
}

func newRowReader(it Iterator, batchSize int) *rowReader {
	return &rowReader{it: it, b: getBatch(batchSize)}
}

// next returns the next row, or ok=false at end of stream.
func (r *rowReader) next() (Row, bool, error) {
	if r.done {
		return Row{}, false, nil
	}
	for r.pos >= len(r.b.Rows) {
		if err := r.it.Next(r.b); err != nil {
			r.done = true
			return Row{}, false, err
		}
		if len(r.b.Rows) == 0 {
			r.done = true
			return Row{}, false, nil
		}
		r.pos = 0
	}
	row := r.b.Rows[r.pos]
	r.pos++
	return row, true, nil
}

// span returns the reader's unconsumed rows, refilling from the child
// when none remain. A nil span signals end of stream. The slice
// aliases the reader's batch: consume a prefix, report it via advance,
// and do not retain the slice across another span or next call.
func (r *rowReader) span() ([]Row, error) {
	if r.done {
		return nil, nil
	}
	for r.pos >= len(r.b.Rows) {
		if err := r.it.Next(r.b); err != nil {
			r.done = true
			return nil, err
		}
		if len(r.b.Rows) == 0 {
			r.done = true
			return nil, nil
		}
		r.pos = 0
	}
	return r.b.Rows[r.pos:], nil
}

// advance marks the first n rows of the current span consumed.
func (r *rowReader) advance(n int) { r.pos += n }

// release returns the reader's batch to the pool and terminates the
// reader. Idempotent; call from the owning operator's Close.
func (r *rowReader) release() {
	if r.b != nil {
		putBatch(r.b)
		r.b = nil
	}
	r.done = true
}

// Row spill codec. Blocking operators that exceed their memory budget
// write sorted runs of encoded rows through storage.Spool. The layout
// is all-varint (the v1 format was 54 fixed bytes plus the key): a
// kind byte and a flags byte, the member and aux postings as
// {doc, start, extent, level, page, slot}, Ord as a signed varint,
// then the key as a uvarint length plus bytes. The posting extent
// (End-Start) is signed so that every Row value — including inverted
// intervals a fuzzer constructs — round-trips exactly. A row's byte
// length comes from the spool's slotted records, not a fixed width.
const rowFlagHasAux = 1 << 0

var errCorruptRow = errors.New("exec: corrupt spilled row")

func appendRowPosting(dst []byte, p storage.Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Interval.Doc))
	dst = binary.AppendUvarint(dst, uint64(p.Interval.Start))
	dst = binary.AppendVarint(dst, int64(p.Interval.End)-int64(p.Interval.Start))
	dst = binary.AppendUvarint(dst, uint64(p.Interval.Level))
	dst = binary.AppendUvarint(dst, uint64(p.RID.Page))
	dst = binary.AppendUvarint(dst, uint64(p.RID.Slot))
	return dst
}

// encodeRow appends the spill encoding of r to dst.
func encodeRow(dst []byte, r Row) []byte {
	dst = append(dst, byte(r.Kind))
	var flags byte
	if r.HasAux {
		flags |= rowFlagHasAux
	}
	dst = append(dst, flags)
	dst = appendRowPosting(dst, r.Member)
	dst = appendRowPosting(dst, r.Aux)
	dst = binary.AppendVarint(dst, r.Ord)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	return dst
}

// decodeRow parses a spilled row. It is a total function over byte
// strings: corrupt input yields an error, never a panic, and the whole
// input must be consumed. The key is copied, so the input may alias a
// pinned page.
func decodeRow(b []byte) (Row, error) {
	if len(b) < 2 {
		return Row{}, errCorruptRow
	}
	var r Row
	r.Kind = rowKind(b[0])
	r.HasAux = b[1]&rowFlagHasAux != 0
	off := 2
	bad := false
	uv := func() uint64 {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			bad = true
			return 0
		}
		off += n
		return v
	}
	sv := func() int64 {
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			bad = true
			return 0
		}
		off += n
		return v
	}
	posting := func() (storage.Posting, bool) {
		doc, start := uv(), uv()
		extent := sv()
		level, page, slot := uv(), uv(), uv()
		var p storage.Posting
		if bad || doc > math.MaxUint32 || start > math.MaxUint32 ||
			level > math.MaxUint16 || page > math.MaxUint32 || slot > math.MaxUint16 {
			return p, false
		}
		end := int64(start) + extent
		if end < 0 || end > math.MaxUint32 {
			return p, false
		}
		p.Interval = xmltree.Interval{
			Doc:   xmltree.DocID(doc),
			Start: uint32(start),
			End:   uint32(end),
			Level: uint16(level),
		}
		p.RID = pagestore.RID{Page: pagestore.PageID(page), Slot: pagestore.Slot(slot)}
		return p, true
	}
	var ok bool
	if r.Member, ok = posting(); !ok {
		return Row{}, errCorruptRow
	}
	if r.Aux, ok = posting(); !ok {
		return Row{}, errCorruptRow
	}
	r.Ord = sv()
	klen := uv()
	if bad || klen > uint64(len(b)-off) {
		return Row{}, errCorruptRow
	}
	r.Key = string(b[off : off+int(klen)])
	off += int(klen)
	if off != len(b) {
		return Row{}, errCorruptRow
	}
	return r, nil
}

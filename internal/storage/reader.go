package storage

import (
	"timber/internal/btree"
	"timber/internal/obs"
	"timber/internal/pagestore"
	"timber/internal/stats"
	"timber/internal/xmltree"
)

// Reader is the read surface shared by DB and Snapshot. Query code is
// written against it: handed a *Snapshot every call sees one pinned
// epoch (what the executor's entry points do — pin once, evaluate,
// unpin), while a *DB degrades gracefully to pin-per-call semantics.
// Executors and tools that need a consistent multi-call view should
// pin explicitly:
//
//	sn := db.Snapshot()
//	defer sn.Close()
//	... use sn as a Reader ...
type Reader interface {
	// Point and range access to stored records.
	GetNodeAt(rid pagestore.RID) (*NodeRecord, error)
	LocateRID(id xmltree.NodeID) (pagestore.RID, error)
	Content(p Posting) (string, error)
	ContentsBatch(ps []Posting, out []string) error
	GetSubtree(id xmltree.NodeID) (*xmltree.Node, error)
	ScanDocument(doc xmltree.DocID, fn func(*NodeRecord) error) error

	// Index access.
	TagPostings(tag string) ([]Posting, error)
	ValuePostings(tag, content string) ([]Posting, error)
	DocRootPosting(doc xmltree.DocID) (Posting, error)
	OpenTagCursor(tag string) *TagCursor
	OpenTagDocCursor(tag string, doc xmltree.DocID) *TagCursor
	Tags() ([]string, error)

	// Catalog and configuration.
	Documents() []DocInfo
	DocumentByName(name string) (DocInfo, bool)
	CardStats() (*stats.Catalog, error)
	HasValueIndex() bool
	Compact() bool
	Epoch() uint64

	// Scratch space for blocking operators.
	NewSpool() *Spool
	SpillTrees(trees []*xmltree.Node) ([]*xmltree.Node, error)

	// Reporting (counters are global to the database, not per-view).
	Stats() pagestore.Stats
	IndexMetrics() btree.MetricsSnapshot
	ResetStats()
	NumPages() uint32
	SizeInfo() (SizeInfo, error)
	TraceCounters() obs.Counters
	NewTracer(name string) *obs.Tracer
}

var (
	_ Reader = (*DB)(nil)
	_ Reader = (*Snapshot)(nil)
)

// Pin resolves a Reader to a consistent single-epoch view: a *DB is
// pinned into a fresh Snapshot (release frees it), anything else is
// assumed already consistent and returned as-is with a no-op release.
func Pin(r Reader) (Reader, func()) {
	if db, ok := r.(*DB); ok {
		sn := db.Snapshot()
		return sn, func() { sn.Close() }
	}
	return r, func() {}
}

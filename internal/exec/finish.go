package exec

import (
	"timber/internal/obs"
	"timber/internal/storage"
)

// finishResult materializes the output collection through the storage
// engine. TIMBER query results are stored trees, so every plan pays to
// write and re-read its answer; this shared cost is what compresses the
// titles experiment's plan gap relative to the count experiment's (the
// paper's E1 ratio is 1.8x against E2's 6.7x largely because the bulky
// titles output burdens both plans equally, while the count output is
// negligible).
//
// Executors may run concurrently against one database. Each spill of
// results (or of the naive plan's intermediates) takes its own pages
// from the store's shared allocator and frees them on every exit path,
// so concurrent queries never share or truncate each other's scratch
// pages; the spill pages compete with the base data for buffer pool
// frames only.
func finishResult(db storage.Reader, res *Result, sp *obs.Span) error {
	finSp := sp.Child("spill: result trees")
	defer finSp.End()
	trees, err := db.SpillTrees(res.Trees)
	if err != nil {
		return err
	}
	res.Trees = trees
	res.Stats.Groups = len(trees)
	finSp.Add("trees", int64(len(trees)))
	return nil
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"timber/internal/engine"
	"timber/internal/pagestore"
	"timber/internal/storage"
	"timber/internal/wal"
	"timber/internal/xmltree"
)

// snap is the global counter state at one edge of the measured window.
type snap struct {
	pool    pagestore.Stats
	wal     wal.Stats
	ingest  storage.IngestCounters
	alloc   uint64
	gcs     uint32
	dbBytes int64
}

func (b *bench) snapshot() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{pool: b.db.Stats(), wal: b.db.WALStats(), ingest: b.db.IngestCounters(),
		alloc: ms.TotalAlloc, gcs: ms.NumGC, dbBytes: dbBytes(b.path)}
}

// run sets up, drives the workload for the measured window, checks
// recovery where the workload writes, and assembles the report.
func run(cfg config) (*report, error) {
	w, _ := findWorkload(cfg.workload)
	nproc := runtime.NumCPU()
	c, err := genCorpus(cfg.articles, cfg.seed)
	if err != nil {
		return nil, err
	}
	su, err := setupRuns(cfg.dir, c, nproc, cfg.setups)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, nproc: nproc, corpus: c, path: su.path, db: su.db, eng: su.eng}
	defer func() {
		if b.db != nil {
			b.db.Close()
		}
	}()
	if err := b.references(w.name); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.rec = newRecorder()
	}

	// Start every window from the same heap state: the set-ups and
	// references leave garbage whose collection would land in it.
	runtime.GC()
	debug.FreeOSMemory()
	before := b.snapshot()
	start := time.Now()
	if err := w.run(b, start.Add(time.Duration(cfg.seconds*float64(time.Second)))); err != nil {
		return nil, err
	}
	window := time.Since(start)
	if w.name == "ingest-mixed" {
		// Make the window's writes durable in the data file, so the
		// bytes on disk do not depend on where the log stood.
		if err := b.db.Checkpoint(); err != nil {
			return nil, err
		}
	}
	after := b.snapshot()
	nodes := 0
	for _, d := range b.db.Documents() {
		nodes += int(d.NodeCount)
	}

	rep := newReport(cfg, w, nproc, su, c, window, before, after, nodes)
	// Peak memory of set-up and window, before the recovery check's
	// fresh load adds its own.
	rep.peakRSS = peakRSSMB()
	if cfg.trace {
		runtime.GC()
		if rep.decodeNS, err = decodeProbe(b.db); err != nil {
			return nil, err
		}
	}
	if w.name == "ingest-mixed" {
		b.add(b.recovery(su.pool))
	}
	if err := rep.fill(b); err != nil {
		return nil, err
	}
	return rep, nil
}

// references computes each oracle's reference with the groupby-mat
// executor, before the measured window.
func (b *bench) references(workload string) error {
	if workload != "ingest-mixed" {
		res, err := reference(b.eng, titlesText)
		if err != nil {
			return fmt.Errorf("titles reference: %w", err)
		}
		b.refTitles = res.Serialize()
		if b.byAuthor, err = titlesByAuthor(b.refTitles); err != nil {
			return err
		}
	}
	if workload != "author-lookup" {
		res, err := reference(b.eng, countText)
		if err != nil {
			return fmt.Errorf("count reference: %w", err)
		}
		b.refCount = res.Serialize()
		if b.baseCount, b.baseTotal, err = parseCounts(b.refCount); err != nil {
			return err
		}
	}
	return nil
}

// decodeProbe times reading every author posting on a cold pool: the
// index read and posting-block decode cost per posting, in ns.
func decodeProbe(db *storage.DB) (float64, error) {
	var v []float64
	for i := 0; i < 3; i++ {
		if err := db.DropCache(); err != nil {
			return 0, err
		}
		start := time.Now()
		ps, err := db.TagPostings("author")
		if err != nil {
			return 0, err
		}
		v = append(v, float64(time.Since(start).Nanoseconds())/float64(max(len(ps), 1)))
	}
	return medianOf(v), nil
}

// recovery closes the database, reopens it (running recovery), and
// checks that every acknowledged insert is present and that the count
// query's output equals the output over a fresh bulk load of the same
// articles. It is one more attempted operation.
func (b *bench) recovery(pool int) sample {
	s := sample{kind: "recovery"}
	start := time.Now()
	if err := b.recoveryCheck(pool); err != nil {
		var w wrongResult
		s.err, s.wrong = err.Error(), errors.As(err, &w)
	}
	s.ms = msSince(start)
	return s
}

// wrongResult marks a recovery failure that is a wrong answer rather
// than an error the program returned.
type wrongResult struct{ error }

func (b *bench) recoveryCheck(pool int) error {
	err := b.db.Close()
	b.db = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	db, err := storage.Open(b.path, storage.Options{PoolPages: pool, SyncPolicy: storage.SyncGroup})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	b.db = db
	var acked []ingestRec
	for _, d := range b.docs {
		if d.acked {
			acked = append(acked, d)
		}
	}
	for _, d := range acked {
		if _, ok := db.DocumentByName(d.name); !ok {
			return wrongResult{fmt.Errorf("acknowledged document %s missing after reopen", d.name)}
		}
	}
	if n := len(db.Documents()); n != 1+len(acked) {
		return wrongResult{fmt.Errorf("%d documents after reopen, want %d", n, 1+len(acked))}
	}
	res, err := engine.New(db, engine.Options{Parallelism: b.nproc}).Query(context.Background(), countText, engine.ExecOptions{})
	if err != nil {
		return fmt.Errorf("count after reopen: %w", err)
	}
	got := b.corrupt(res.Serialize())
	if err := checkSnapshotCount(got, b.baseCount, b.baseTotal, acked, len(acked)); err != nil {
		return wrongResult{fmt.Errorf("count after reopen: %w", err)}
	}

	// The count query groups across documents, so one bulk-loaded
	// document holding the base articles and every acknowledged
	// document's articles must give the same bytes.
	merged, err := xmltree.Parse(bytes.NewReader(b.corpus.xml))
	if err != nil {
		return err
	}
	for _, d := range acked {
		tree, err := xmltree.Parse(bytes.NewReader(d.body))
		if err != nil {
			return err
		}
		merged.Append(tree.Children...)
	}
	fresh := filepath.Join(b.cfg.dir, "fresh.timber")
	fdb, err := storage.Create(fresh, storage.Options{})
	if err != nil {
		return err
	}
	defer removeDB(fresh)
	defer fdb.Close()
	if _, err := fdb.LoadDocument(docName, merged); err != nil {
		return fmt.Errorf("fresh load: %w", err)
	}
	want, err := reference(engine.New(fdb, engine.Options{Parallelism: b.nproc}), countText)
	if err != nil {
		return fmt.Errorf("fresh count: %w", err)
	}
	if w := want.Serialize(); got != w {
		return wrongResult{fmt.Errorf("count after reopen (%d bytes) differs from a fresh load of the same articles (%d bytes)", len(got), len(w))}
	}
	return nil
}

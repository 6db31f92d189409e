package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	harness "timber/internal/bench"
	"timber/internal/dblpgen"
	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// docName is the base corpus's catalog name.
const docName = "dblp-journals.xml"

// corpus is the generated input: the base DBLP document as XML text,
// plus what the oracles need to know about it.
type corpus struct {
	xml      []byte
	stats    dblpgen.Stats
	pool     int      // dblpgen author pool size (ids 0..pool-1)
	authors  []string // distinct author names, sorted
	articles int
}

// genCorpus builds the seeded base corpus. The program only ever sees
// the XML text.
func genCorpus(articles int, seed int64) (*corpus, error) {
	cfg := dblpgen.Config{Articles: articles, Seed: seed}
	root, st := dblpgen.Generate(cfg)
	seen := map[string]bool{}
	root.Walk(func(n *xmltree.Node) bool {
		if n.Tag == "author" {
			seen[n.Content] = true
		}
		return true
	})
	var buf bytes.Buffer
	if err := xmltree.Serialize(&buf, root); err != nil {
		return nil, err
	}
	c := &corpus{xml: buf.Bytes(), stats: st, pool: articles/2 + 1, articles: articles}
	for a := range seen {
		c.authors = append(c.authors, a)
	}
	sort.Strings(c.authors)
	return c, nil
}

// ingestDoc generates the i-th document the ingest writer inserts: 25
// articles drawn from the base corpus's author pool, so new documents
// extend existing authors' groups as well as adding new ones.
func ingestDoc(seed int64, i int, pool int) (name string, xml []byte, err error) {
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 25, AuthorPool: pool, Seed: seed*1_000_003 + int64(i) + 1})
	var buf bytes.Buffer
	if err := xmltree.Serialize(&buf, root); err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("ingest-%06d.xml", i), buf.Bytes(), nil
}

// setupDB is the set-up a user of the system performs, and what setup_s
// times: bulk-load the corpus with the loader path (timber-load),
// analyse it so the planner has statistics, close, and reopen it the
// way timber-serve does, with a buffer pool a quarter of the database
// (the paper's 32 MB pool against its 100 MB database).
func setupDB(path string, c *corpus, nproc int) (*setupOut, error) {
	db, err := storage.Create(path, storage.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := db.LoadXML(docName, bytes.NewReader(c.xml)); err != nil {
		db.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if _, err := db.BuildCardStats(storage.SyncGroup); err != nil {
		db.Close()
		return nil, fmt.Errorf("analyse: %w", err)
	}
	su := &setupOut{path: path, pages: int(db.NumPages())}
	if err := db.Close(); err != nil {
		return nil, err
	}
	su.pool = max(su.pages/4, 32)
	su.db, err = storage.Open(path, storage.Options{
		PoolPages:  su.pool,
		SyncPolicy: storage.SyncGroup,
		Journal:    obs.NewJournal(obs.DefaultJournalEvents),
	})
	if err != nil {
		return nil, err
	}
	su.eng = engine.New(su.db, engine.Options{Parallelism: nproc})
	return su, nil
}

// setupOut is an opened, analysed database.
type setupOut struct {
	db    *storage.DB
	eng   *engine.Engine
	path  string
	pages int // database pages after the load
	pool  int // buffer pool pages
	secs  []float64
}

// removeDB deletes a database file and its log.
func removeDB(path string) {
	os.Remove(path)
	os.Remove(path + ".wal")
}

// dbBytes is the on-disk footprint: data file plus log.
func dbBytes(path string) int64 {
	var n int64
	for _, p := range []string{path, path + ".wal"} {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// setupRuns performs the set-up `times` times into fresh files, timing
// each, and keeps the last database open.
func setupRuns(dir string, c *corpus, nproc, times int) (*setupOut, error) {
	var secs []float64
	for i := 0; ; i++ {
		path := filepath.Join(dir, fmt.Sprintf("base-%d.timber", i))
		runtime.GC()
		start := time.Now()
		su, err := setupDB(path, c, nproc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == times-1 {
			su.secs = secs
			return su, nil
		}
		if err := su.db.Close(); err != nil {
			return nil, err
		}
		removeDB(path)
	}
}

// Query texts. Titles and count are the paper's Query 1 and its Sec. 6
// count variant; lookup is Query 1 restricted to one author.
var (
	titlesText = harness.Query1Text
	countText  = harness.QueryCountText
)

func lookupText(name string) string {
	return `FOR $a IN distinct-values(document("bib.xml")//author)
WHERE $a = "` + name + `"
RETURN <authorpubs>{$a}{FOR $b IN document("bib.xml")//article WHERE $a = $b/author RETURN $b/title}</authorpubs>`
}

// reference runs a query with the materializing groupby executor
// (groupby-mat), the repository's reference for the streaming plan.
func reference(eng *engine.Engine, text string) (*engine.Result, error) {
	pq, err := eng.Prepare(text)
	if err != nil {
		return nil, err
	}
	return pq.Execute(context.Background(), engine.ExecOptions{Strategy: exec.StrategyGroupByMat})
}

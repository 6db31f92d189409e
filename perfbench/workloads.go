package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timber/internal/engine"
	"timber/internal/obs"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client issues its next operation only when the previous one returned.
// The end-to-end metrics a_* and b_* report the latencies of the
// operation kinds listed in a and b; read names the kind the per-layer
// metrics describe.
type workload struct {
	name, why string
	a, b      []string
	read      string
	run       func(b *bench, until time.Time) error
}

var workloads = []workload{
	{
		name: "sec6-groupby",
		why:  "the paper's Sec. 6 run: Query 1 titles (overflows the pool, late materialization) alternating with its count variant (identifier-only)",
		a:    []string{"titles"}, b: []string{"count"}, read: "titles",
		run: runSec6,
	},
	{
		name: "author-lookup",
		why:  "single-author Query 1 with mostly new texts: front end, pattern match and the physical plan work while the groupby pipeline idles",
		a:    []string{"lookup", "absent"}, b: []string{"lookup"}, read: "lookup",
		run: runLookup,
	},
	{
		name: "ingest-mixed",
		why:  "one writer inserting 25-article documents under group commit beside one reader running the count query: WAL, COW B+trees, checkpoints, snapshots",
		a:    []string{"insert"}, b: []string{"count"}, read: "count",
		run: runIngest,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one run's state.
type bench struct {
	cfg    config
	nproc  int
	corpus *corpus
	path   string
	db     *storage.DB
	eng    *engine.Engine
	rec    *recorder // nil in an untraced run

	refTitles string // Query 1 reference output (groupby-mat)
	refCount  string // count reference output (groupby-mat)
	byAuthor  map[string][]string
	baseCount map[string]int // author → articles in the base corpus
	baseTotal int

	opID atomic.Int64

	mu        sync.Mutex
	samples   []sample
	docs      []ingestRec
	fsyncNS   []int64
	ckptNS    []int64
	corrupted bool
}

func (b *bench) nextOp() int { return int(b.opID.Add(1)) }

func (b *bench) add(s sample) {
	b.mu.Lock()
	b.samples = append(b.samples, s)
	b.mu.Unlock()
}

// recFor returns the recorder for the n-th op of a type: in a traced
// run, every other op of each type is traced, so the untraced ones in
// between measure the tracing overhead under the same conditions.
func (b *bench) recFor(n int) *recorder {
	if n%2 == 0 {
		return b.rec
	}
	return nil
}

// corrupt is the smoke test's hook: it damages the first result it
// sees, which the oracle must then count as a failed op.
func (b *bench) corrupt(out string) string {
	if !b.cfg.corruptFirst {
		return out
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.corrupted || out == "" {
		return out
	}
	b.corrupted = true
	return strings.Replace(out, "</author>", "x</author>", 1)
}

// checked records a query sample after running its oracle.
func (b *bench) checked(s sample, out string, oracle func(string) error) {
	if s.err == "" {
		if err := oracle(b.corrupt(out)); err != nil {
			s.err, s.wrong = "wrong result: "+err.Error(), true
		}
	}
	b.add(s)
}

// warm runs each query once before timing, so plan compilation for the
// fixed texts and the engine's statistics cache are in place.
func (b *bench) warm(texts ...string) error {
	for _, t := range texts {
		if _, err := b.eng.Query(context.Background(), t, engine.ExecOptions{}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func runSec6(b *bench, until time.Time) error {
	if err := b.warm(titlesText, countText); err != nil {
		return err
	}
	for i := 0; time.Now().Before(until); i++ {
		kind, text, ref := "titles", titlesText, b.refTitles
		if i%2 == 1 {
			kind, text, ref = "count", countText, b.refCount
		}
		s, _, out := b.query(b.recFor(i/2), kind, text)
		b.checked(s, out, func(o string) error {
			if o != ref {
				return fmt.Errorf("%s result (%d bytes) differs from the groupby-mat reference (%d bytes)", kind, len(o), len(ref))
			}
			return nil
		})
	}
	return nil
}

// lookupName draws the i-th name of the author-lookup stream: two of
// every three are authors of the corpus (uniform over distinct authors,
// so most texts are new to the plan cache), the third a name of the
// same shape that no article carries.
func lookupName(rng *rand.Rand, c *corpus, i int) (name string, absent bool) {
	name = c.authors[rng.Intn(len(c.authors))]
	if i%3 != 2 {
		return name, false
	}
	// Authors are "<first> <last> <id>" with id < pool.
	return name[:strings.LastIndexByte(name, ' ')+1] + fmt.Sprint(c.pool+rng.Intn(c.pool)), true
}

func runLookup(b *bench, until time.Time) error {
	rng := rand.New(rand.NewSource(b.cfg.seed ^ 0x51ed))
	first, _ := lookupName(rng, b.corpus, 0)
	if err := b.warm(lookupText(first)); err != nil {
		return err
	}
	seen := map[string]int{}
	for i := 1; time.Now().Before(until); i++ {
		name, absent := lookupName(rng, b.corpus, i)
		kind := "lookup"
		if absent {
			kind = "absent"
		}
		s, _, out := b.query(b.recFor(seen[kind]), kind, lookupText(name))
		seen[kind]++
		b.checked(s, out, func(o string) error { return checkLookup(o, name, b.byAuthor) })
	}
	return nil
}

func runIngest(b *bench, until time.Time) error {
	if err := b.warm(countText); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := b.writer(until); err != nil {
			errc <- err
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; time.Now().Before(until); n++ {
			b.mu.Lock()
			ackedAtStart := 0
			for _, d := range b.docs {
				if d.acked {
					ackedAtStart++
				}
			}
			b.mu.Unlock()
			s, _, out := b.query(b.recFor(n), "count", countText)
			b.mu.Lock()
			docs := append([]ingestRec(nil), b.docs...)
			b.mu.Unlock()
			b.checked(s, out, func(o string) error {
				return checkSnapshotCount(o, b.baseCount, b.baseTotal, docs, ackedAtStart)
			})
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// writer inserts the seeded document stream until the deadline.
func (b *bench) writer(until time.Time) error {
	j := b.db.Journal()
	var seen uint64
	if b.rec != nil {
		seen = j.Seq()
	}
	for i := 0; time.Now().Before(until); i++ {
		name, body, err := ingestDoc(b.cfg.seed, i, b.corpus.pool)
		if err != nil {
			return err
		}
		tree, err := xmltree.Parse(bytes.NewReader(body))
		if err != nil {
			return err
		}
		inc, total := authorCounts(tree)
		b.mu.Lock()
		b.docs = append(b.docs, ingestRec{name: name, body: body, inc: inc, total: total})
		b.mu.Unlock()
		s := b.insert(b.recFor(i), name, body)
		b.mu.Lock()
		b.docs[i].done, b.docs[i].acked = true, s.err == ""
		b.mu.Unlock()
		b.add(s)
		if b.rec != nil {
			seen = b.collectWriteEvents(j, seen)
		}
	}
	return nil
}

// collectWriteEvents gathers the durations of WAL fsyncs and
// checkpoints the storage layer journaled since seq.
func (b *bench) collectWriteEvents(j *obs.Journal, seq uint64) uint64 {
	evs := j.Events(obs.EventFilter{Types: []obs.EventType{obs.EvWALFsync, obs.EvCheckpoint}, SinceSeq: seq})
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range evs {
		if e.Type == obs.EvWALFsync {
			b.fsyncNS = append(b.fsyncNS, e.DurNS)
		} else {
			b.ckptNS = append(b.ckptNS, e.DurNS)
		}
		seq = e.Seq
	}
	return seq
}

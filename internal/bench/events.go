package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"timber/internal/dblpgen"
	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/pagestore"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// EventsVariant is one side of the journal-overhead comparison: E1
// wall times with the event journal off or on, over identical data.
type EventsVariant struct {
	Name string `json:"name"`
	// WallNS holds every timed repetition, in run order.
	WallNS []int64 `json:"wall_ns"`
	// MedianNS is the repetition median — the headline number; medians
	// shrug off one-off scheduler noise better than means.
	MedianNS int64 `json:"median_ns"`
	// ResultHash fingerprints the serialized result trees; both
	// variants must agree (the journal never changes results).
	ResultHash string `json:"result_hash"`
	// Events and Flights report what the journaled variant actually
	// recorded — the comparison is meaningless if nothing was emitted.
	Events  uint64 `json:"events,omitempty"`
	Flights int    `json:"flights,omitempty"`
}

// EventsReport is the BENCH_events.json shape: the measured cost of
// leaving the event journal on during query execution.
type EventsReport struct {
	Articles int           `json:"articles"`
	PoolMB   int           `json:"pool_mb"`
	Reps     int           `json:"reps"`
	Seed     int64         `json:"seed"`
	Off      EventsVariant `json:"journal_off"`
	On       EventsVariant `json:"journal_on"`
	// OverheadPct is (on - off) / off in percent, by medians. Negative
	// values mean the difference drowned in run-to-run noise.
	OverheadPct float64 `json:"overhead_pct"`
}

// RunEventsOverhead measures the journal's query-path cost: the same
// synthetic database is built twice — once with no journal, once with
// an event journal wired through storage and engine — and E1 runs
// reps times on each through the full engine path (planner decision,
// execution, completion event, flight-record hand-off). Results must
// hash identically; the report carries the wall-time delta.
func RunEventsOverhead(articles, reps, poolMB int, seed int64, logf func(format string, args ...any)) (*EventsReport, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if poolMB <= 0 {
		poolMB = 32
	}
	if reps <= 0 {
		reps = 5
	}
	poolPages := poolMB * 1024 * 1024 / pagestore.DefaultPageSize
	cfg := dblpgen.Config{Articles: articles, Seed: seed}
	rep := &EventsReport{Articles: articles, PoolMB: poolMB, Reps: reps, Seed: seed}

	var err error
	if rep.Off, err = measureEventsVariant("journal_off", cfg, poolPages, nil, reps, logf); err != nil {
		return nil, err
	}
	journal := obs.NewJournal(obs.DefaultJournalEvents)
	if rep.On, err = measureEventsVariant("journal_on", cfg, poolPages, journal, reps, logf); err != nil {
		return nil, err
	}
	rep.On.Events = journal.Seq()
	rep.On.Flights = len(journal.Flights())
	if rep.On.Events == 0 {
		return nil, fmt.Errorf("bench: events: journaled run emitted no events — overhead comparison is vacuous")
	}
	if rep.Off.ResultHash != rep.On.ResultHash {
		return nil, fmt.Errorf("bench: events: journal changed results: off %s != on %s",
			rep.Off.ResultHash, rep.On.ResultHash)
	}
	if rep.Off.MedianNS > 0 {
		rep.OverheadPct = 100 * float64(rep.On.MedianNS-rep.Off.MedianNS) / float64(rep.Off.MedianNS)
	}
	logf("E1 median: off %v, on %v (%+.2f%%), %d events, %d flight records",
		time.Duration(rep.Off.MedianNS).Round(time.Microsecond),
		time.Duration(rep.On.MedianNS).Round(time.Microsecond),
		rep.OverheadPct, rep.On.Events, rep.On.Flights)
	return rep, nil
}

func measureEventsVariant(name string, cfg dblpgen.Config, poolPages int, j *obs.Journal, reps int, logf func(string, ...any)) (v EventsVariant, err error) {
	v.Name = name
	db, err := storage.CreateTemp(storage.Options{
		PageSize:  pagestore.DefaultPageSize,
		PoolPages: poolPages,
		Journal:   j,
	})
	if err != nil {
		return v, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()

	start := time.Now()
	if _, err := dblpgen.GenerateToDB(db, cfg); err != nil {
		return v, err
	}
	logf("%s: loaded %d articles in %v", name, cfg.Articles, time.Since(start).Round(time.Millisecond))

	eng := engine.New(db, engine.Options{})
	pq, err := eng.Prepare(Query1Text)
	if err != nil {
		return v, err
	}
	ctx := context.Background()
	o := engine.ExecOptions{Strategy: exec.StrategyGroupBy}

	// One warm-up pass faults the working set into the pool; the timed
	// passes then compare execution alone.
	if _, err := pq.Execute(ctx, o); err != nil {
		return v, err
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := pq.Execute(ctx, o)
		if err != nil {
			return v, err
		}
		v.WallNS = append(v.WallNS, time.Since(t0).Nanoseconds())
		if i == reps-1 {
			v.ResultHash = hashTrees(res.Trees)
		}
	}
	sorted := append([]int64(nil), v.WallNS...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	v.MedianNS = sorted[len(sorted)/2]
	logf("%s: E1 median %v over %d reps", name, time.Duration(v.MedianNS).Round(time.Microsecond), reps)
	return v, nil
}

// WriteJSON writes the report, indented, to path.
func (r *EventsReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hashTrees fingerprints result trees byte-exactly (serialized form,
// in order) for result-equality checks.
func hashTrees(trees []*xmltree.Node) string {
	h := fnv.New64a()
	for _, tr := range trees {
		if err := xmltree.Serialize(h, tr); err != nil {
			// The fnv writer never fails; a serialize error means a
			// malformed tree, which the hash mismatch will surface.
			fmt.Fprintf(h, "!%v", err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

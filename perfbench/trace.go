package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"timber/internal/obs"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation share Op; Parent
// is the ID of the enclosing span (0 for an operation's root).
//
// Imported spans are the executor's own phase spans (engine
// ExecOptions.Tracer), which report a duration but no start time. They
// are laid out back to back from their parent's start in execution
// order; their durations are exact, their placement is not.
type Span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Op       int              `json:"op"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Imported bool             `json:"imported,omitempty"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s *Span) Dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps every span of a traced run in memory; they are written
// out once, when the run ends. A nil *recorder records nothing, so the
// untraced path runs the same code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.origin).Nanoseconds() }

// begin opens a span and returns its ID (0 when r is nil).
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, StartNS: start})
	return id
}

// end closes span id, attaching counts (may be nil).
func (r *recorder) end(id int, counts map[string]int64) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = end
	s.Counts = counts
}

// importTrace adds the children of an executor trace under parent,
// starting at the parent's start. Each imported span carries the
// operator counts the executor attached plus its buffer-pool fetch
// delta.
func (r *recorder) importTrace(op, parent int, d *obs.SpanData) {
	if r == nil || d == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.importChildren(op, parent, r.spans[parent-1].StartNS, d.Children)
}

func (r *recorder) importChildren(op, parent int, at int64, children []*obs.SpanData) {
	for _, c := range children {
		counts := map[string]int64{"fetches": int64(c.Delta.Fetches), "physical_reads": int64(c.Delta.PhysicalReads)}
		for k, v := range c.Ops {
			counts[k] = v
		}
		id := len(r.spans) + 1
		r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: c.Name,
			StartNS: at, EndNS: at + c.WallNS, Imported: true, Counts: counts})
		r.importChildren(op, id, at, c.Children)
		at += c.WallNS
	}
}

// traceTree is the analysed span set: children by parent and the self
// time of every span (its duration minus the part its children cover).
type traceTree struct {
	spans    []Span
	children map[int][]int
	self     map[int]int64
}

// analyse computes self times and checks that the spans nest: every
// child lies inside its parent, siblings do not overlap, and so the
// children's self times never sum past the parent's duration.
func analyse(spans []Span) (*traceTree, error) {
	t := &traceTree{spans: spans, children: map[int][]int{}, self: map[int]int64{}}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return nil, fmt.Errorf("trace: span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
	for _, s := range spans {
		kids := t.children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]-1].StartNS < spans[kids[j]-1].StartNS })
		covered, prevEnd := int64(0), s.StartNS
		for _, k := range kids {
			c := spans[k-1]
			if c.Op != s.Op || c.StartNS < s.StartNS || c.EndNS > s.EndNS {
				return nil, fmt.Errorf("trace: span %d %q is not inside its parent %d %q", c.ID, c.Name, s.ID, s.Name)
			}
			if c.StartNS < prevEnd {
				return nil, fmt.Errorf("trace: span %d %q overlaps an earlier sibling under %q", c.ID, c.Name, s.Name)
			}
			covered += c.Dur()
			prevEnd = c.EndNS
		}
		t.self[s.ID] = s.Dur() - covered
	}
	for _, s := range spans {
		var sum int64
		for _, k := range t.children[s.ID] {
			sum += t.self[k]
		}
		if sum > s.Dur() {
			return nil, fmt.Errorf("trace: children of span %d %q have %d ns of self time in %d ns", s.ID, s.Name, sum, s.Dur())
		}
	}
	return t, nil
}

// opLayers is one op's spans by name: summed durations, self times and
// counts (keyed "<span name>#<count name>").
type opLayers struct {
	durNS  map[string]int64
	selfNS map[string]int64
	counts map[string]int64
	seen   map[string]bool
}

func (t *traceTree) layersOf(op int) opLayers {
	l := opLayers{durNS: map[string]int64{}, selfNS: map[string]int64{}, counts: map[string]int64{}, seen: map[string]bool{}}
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		l.seen[s.Name] = true
		l.durNS[s.Name] += s.Dur()
		l.selfNS[s.Name] += t.self[s.ID]
		for k, v := range s.Counts {
			l.counts[s.Name+"#"+k] += v
		}
	}
	return l
}

// writeTrace writes the spans as JSON.
func writeTrace(path string, spans []Span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

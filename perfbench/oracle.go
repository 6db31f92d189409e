package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"timber/internal/xmltree"
)

// parseGroups parses a serialized result (concatenated <authorpubs>
// trees) back into trees.
func parseGroups(out string) ([]*xmltree.Node, error) {
	if out == "" {
		return nil, nil
	}
	root, err := xmltree.ParseString("<result>" + out + "</result>")
	if err != nil {
		return nil, fmt.Errorf("result does not parse: %v", err)
	}
	return root.Children, nil
}

// titlesByAuthor indexes the Query 1 reference: author → titles.
func titlesByAuthor(refOut string) (map[string][]string, error) {
	groups, err := parseGroups(refOut)
	if err != nil {
		return nil, err
	}
	m := make(map[string][]string, len(groups))
	for _, g := range groups {
		a := g.Child("author")
		if a == nil {
			return nil, fmt.Errorf("reference group without an author")
		}
		var ts []string
		for _, t := range g.ChildrenTagged("title") {
			ts = append(ts, t.Content)
		}
		sort.Strings(ts)
		m[a.Content] = ts
	}
	return m, nil
}

// checkLookup verifies a single-author result: a present author's one
// group must hold exactly the titles of that author's group in the
// Query 1 reference (compared as a multiset); an absent name must
// return nothing.
func checkLookup(out, name string, ref map[string][]string) error {
	groups, err := parseGroups(out)
	if err != nil {
		return err
	}
	want, present := ref[name]
	if !present {
		if len(groups) != 0 {
			return fmt.Errorf("absent author %q returned %d groups", name, len(groups))
		}
		return nil
	}
	if len(groups) != 1 {
		return fmt.Errorf("author %q returned %d groups, want 1", name, len(groups))
	}
	g := groups[0]
	if a := g.Child("author"); g.Tag != "authorpubs" || a == nil || a.Content != name {
		return fmt.Errorf("author %q: group is not <authorpubs><author>%s</author>…", name, name)
	}
	var got []string
	for _, t := range g.ChildrenTagged("title") {
		got = append(got, t.Content)
	}
	sort.Strings(got)
	if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
		return fmt.Errorf("author %q: %d titles, reference has %d (or the titles differ)", name, len(got), len(want))
	}
	return nil
}

// parseCounts reads a count-query result into author → count, checking
// the groups arrive in ascending author order.
func parseCounts(out string) (map[string]int, int, error) {
	groups, err := parseGroups(out)
	if err != nil {
		return nil, 0, err
	}
	m := make(map[string]int, len(groups))
	total, prev := 0, ""
	for i, g := range groups {
		a, c := g.Child("author"), g.Child("count")
		if a == nil || c == nil {
			return nil, 0, fmt.Errorf("group %d lacks author or count", i)
		}
		if i > 0 && a.Content <= prev {
			return nil, 0, fmt.Errorf("groups out of order at %q", a.Content)
		}
		prev = a.Content
		n, err := strconv.Atoi(c.Content)
		if err != nil {
			return nil, 0, fmt.Errorf("author %q: count %q", a.Content, c.Content)
		}
		m[a.Content] = n
		total += n
	}
	return m, total, nil
}

// authorCounts counts each author's articles in one document.
func authorCounts(doc *xmltree.Node) (map[string]int, int) {
	m := map[string]int{}
	total := 0
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Tag == "author" {
			m[n.Content]++
			total++
		}
		return true
	})
	return m, total
}

// ingestRec is the writer's record of one document it inserted (in
// commit order), with the document's per-author contribution to the
// count query.
type ingestRec struct {
	name  string
	body  []byte
	inc   map[string]int
	total int
	acked bool // InsertDocument returned without error
	done  bool // InsertDocument returned (acked or failed)
}

// checkSnapshotCount verifies a count result read while the writer
// ran. Snapshot isolation means the result must equal the base corpus
// plus exactly the first k committed documents, for some k no smaller
// than the number acknowledged when the query started. docs is the
// writer's log as of the query's end (the last entry may still be in
// flight).
func checkSnapshotCount(out string, base map[string]int, baseTotal int, docs []ingestRec, ackedAtStart int) error {
	got, total, err := parseCounts(out)
	if err != nil {
		return err
	}
	var prefix []ingestRec
	sum := baseTotal
	for _, d := range docs {
		if d.done && !d.acked {
			continue // failed insert: never visible
		}
		if sum == total {
			break
		}
		prefix = append(prefix, d)
		sum += d.total
	}
	if sum != total {
		return fmt.Errorf("count total %d matches no committed prefix of the ingest log", total)
	}
	if len(prefix) < ackedAtStart {
		return fmt.Errorf("result shows %d inserted documents, %d were acknowledged before the query started", len(prefix), ackedAtStart)
	}
	want := make(map[string]int, len(base))
	for a, n := range base {
		want[a] = n
	}
	for _, d := range prefix {
		for a, n := range d.inc {
			want[a] += n
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("%d groups, want %d after %d inserts", len(got), len(want), len(prefix))
	}
	for a, n := range want {
		if got[a] != n {
			return fmt.Errorf("author %q: count %d, want %d after %d inserts", a, got[a], n, len(prefix))
		}
	}
	return nil
}

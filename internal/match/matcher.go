package match

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"timber/internal/obs"
	"timber/internal/pattern"
	"timber/internal/storage"
)

// MatcherKind selects the algorithm that embeds a pattern tree into the
// database. The zero value is MatcherAuto.
type MatcherKind int

const (
	// MatcherAuto lets the caller's planner decide; at this package's
	// level (no statistics) it resolves structurally — holistic when the
	// pattern qualifies, binary otherwise.
	MatcherAuto MatcherKind = iota
	// MatcherBinary is the cascaded binary structural-join matcher of
	// Sec. 5.2: materialize per-node candidate lists, then resolve one
	// pattern edge at a time in greedy cost order.
	MatcherBinary
	// MatcherTwig is the holistic twig-join matcher (TwigStack family):
	// per-node posting streams off the B+tree cursors with per-node
	// stacks encoding partial root-to-leaf paths; candidate lists are
	// never materialized.
	MatcherTwig
)

var matcherNames = map[MatcherKind]string{
	MatcherAuto:   "auto",
	MatcherBinary: "binary",
	MatcherTwig:   "twig",
}

func (k MatcherKind) String() string {
	if n, ok := matcherNames[k]; ok {
		return n
	}
	return fmt.Sprintf("matcher(%d)", int(k))
}

// ParseMatcher resolves a matcher name ("" means auto).
func ParseMatcher(name string) (MatcherKind, error) {
	if name == "" {
		return MatcherAuto, nil
	}
	for k, n := range matcherNames {
		if n == name {
			return k, nil
		}
	}
	return MatcherAuto, fmt.Errorf("match: unknown matcher %q (have %s)", name, strings.Join(MatcherNames(), ", "))
}

// MatcherNames lists the accepted matcher names, sorted.
func MatcherNames() []string {
	out := make([]string, 0, len(matcherNames))
	for _, n := range matcherNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TwigApplicable reports whether the holistic matcher can drive the
// pattern: every node must carry a tag constraint, because the twig
// streams are tag-index cursors (an untagged node would need a full
// database scan, which is the binary path's fallback).
func TwigApplicable(pt *pattern.Tree) bool {
	for _, pn := range preorder(pt.Root) {
		if pn.TagConstraint() == "" {
			return false
		}
	}
	return true
}

// MatchKindObs computes the pattern's witnesses against every document
// in the database with the chosen algorithm. MatcherAuto, and a
// MatcherTwig request on a pattern the holistic matcher cannot drive
// (one with an untagged node), resolve as documented on the kinds;
// DBStats.Matcher records what actually ran. The binding output is
// byte-identical across kinds and parallelisms — per-document witnesses
// sorted lexicographically by pre-order node identifiers, documents
// ascending, exactly Match's order — and only the access counters
// differ. parallelism (<= 0 means GOMAXPROCS) applies to the binary
// cascade's per-document join phase; the holistic matcher is
// single-pass by construction.
//
// A non-nil ctx cancels the match; a cancelled match returns ctx.Err()
// and no bindings. When sp is non-nil the matcher's phases become child
// spans carrying their access counts; a nil span costs nothing and the
// output is identical either way. MatchKindObs only reads the database
// (one pinned epoch) and is safe to call concurrently with other
// readers.
func MatchKindObs(ctx context.Context, db storage.Reader, pt *pattern.Tree, kind MatcherKind, parallelism int, sp *obs.Span) ([]DBBinding, *DBStats, error) {
	if kind == MatcherBinary || !TwigApplicable(pt) {
		return matchBinary(ctx, db, pt, parallelism, sp)
	}
	return matchTwig(ctx, db, pt, sp)
}

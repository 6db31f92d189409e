package pattern

import (
	"fmt"
	"strconv"
	"strings"
)

// Predicate is a node-local condition on a data node's fields. The
// predicates here cover everything the paper's queries use: tag
// equality, content equality, the "*Transaction*" style glob of
// Figure 1, value comparisons, and attribute tests.
type Predicate interface {
	// Matches reports whether the data node satisfies the predicate.
	Matches(f Fields) bool
	// String renders the predicate in the paper's notation, with $i
	// left implicit (the owning pattern node supplies it).
	String() string
}

// TagEq requires $i.tag = Tag.
type TagEq struct{ Tag string }

// Matches implements Predicate.
func (p TagEq) Matches(f Fields) bool { return f.Tag() == p.Tag }

func (p TagEq) String() string { return "tag=" + p.Tag }

// ContentEq requires $i.content = Value (string equality).
type ContentEq struct{ Value string }

// Matches implements Predicate.
func (p ContentEq) Matches(f Fields) bool { return f.Content() == p.Value }

func (p ContentEq) String() string { return fmt.Sprintf("content=%q", p.Value) }

// ContentIn requires $i.content to be one of a set of values: the
// semi-join filter a value join pushes into its inner pattern (the join
// node must carry one of the outer side's join values). The set sits
// behind a pointer so the predicate stays comparable with ==, as every
// Predicate must be; two ContentIn values are equal only when built by
// the same NewContentIn call.
type ContentIn struct{ set *valueSet }

type valueSet struct {
	values []string
	has    map[string]bool
}

// NewContentIn builds the predicate over values, keeping the distinct
// ones in first-appearance order.
func NewContentIn(values []string) ContentIn {
	s := &valueSet{has: make(map[string]bool, len(values))}
	for _, v := range values {
		if !s.has[v] {
			s.has[v] = true
			s.values = append(s.values, v)
		}
	}
	return ContentIn{set: s}
}

// Values returns the distinct member values in first-appearance order.
// The slice is shared; callers must not modify it.
func (p ContentIn) Values() []string { return p.set.values }

// Matches implements Predicate.
func (p ContentIn) Matches(f Fields) bool { return p.set.has[f.Content()] }

func (p ContentIn) String() string { return fmt.Sprintf("content in {%d values}", len(p.set.values)) }

// ContentGlob requires $i.content to match a glob where '*' matches any
// (possibly empty) substring — the paper's `content = "*Transaction*"`.
type ContentGlob struct{ Pattern string }

// Matches implements Predicate.
func (p ContentGlob) Matches(f Fields) bool { return globMatch(p.Pattern, f.Content()) }

func (p ContentGlob) String() string { return fmt.Sprintf("content~%q", p.Pattern) }

// globMatch matches pattern against s, where '*' matches any substring.
func globMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return s == pattern
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return strings.HasSuffix(s, last) && len(s) >= len(last)
}

// CmpOp is a comparison operator for ContentCmp.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Ne
)

func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "!="
	}
}

// ContentCmp requires $i.content Op Value. If both the content and the
// value parse as numbers the comparison is numeric, otherwise
// lexicographic — the usual untyped-XML convention.
type ContentCmp struct {
	Op    CmpOp
	Value string
}

// Matches implements Predicate.
func (p ContentCmp) Matches(f Fields) bool {
	c := f.Content()
	var sign int
	if cn, err1 := strconv.ParseFloat(c, 64); err1 == nil {
		if vn, err2 := strconv.ParseFloat(p.Value, 64); err2 == nil {
			switch {
			case cn < vn:
				sign = -1
			case cn > vn:
				sign = 1
			}
			return cmpSign(p.Op, sign)
		}
	}
	sign = strings.Compare(c, p.Value)
	return cmpSign(p.Op, sign)
}

func cmpSign(op CmpOp, sign int) bool {
	switch op {
	case Lt:
		return sign < 0
	case Le:
		return sign <= 0
	case Gt:
		return sign > 0
	case Ge:
		return sign >= 0
	default:
		return sign != 0
	}
}

func (p ContentCmp) String() string { return fmt.Sprintf("content%s%q", p.Op, p.Value) }

// AttrEq requires $i.attr Name to exist with value Value.
type AttrEq struct{ Name, Value string }

// Matches implements Predicate.
func (p AttrEq) Matches(f Fields) bool {
	v, ok := f.Attr(p.Name)
	return ok && v == p.Value
}

func (p AttrEq) String() string { return fmt.Sprintf("@%s=%q", p.Name, p.Value) }

// AttrExists requires $i to carry attribute Name.
type AttrExists struct{ Name string }

// Matches implements Predicate.
func (p AttrExists) Matches(f Fields) bool {
	_, ok := f.Attr(p.Name)
	return ok
}

func (p AttrExists) String() string { return fmt.Sprintf("@%s", p.Name) }

// PredsImply reports whether the conjunction a implies the conjunction
// b, using the syntactic rule "every predicate of b appears in a". It is
// the node-compatibility test of the Phase 1 subset check: a pattern
// node of the sub-tree is satisfied by a pattern node of the super-tree
// whose predicates are at least as strong.
func PredsImply(a, b []Predicate) bool {
	for _, pb := range b {
		found := false
		for _, pa := range a {
			if pa == pb {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

package dcs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/plan"
	"nlexplain/internal/qrand"
	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
	"nlexplain/internal/wikitables"
)

// alien is an expression type the language does not know. It is not
// zero-sized, so that every one is a pointer of its own.
type alien struct{ _ byte }

func (*alien) String() string   { return "alien" }
func (*alien) Type() Type       { return ValuesType }
func (*alien) Children() []Expr { return nil }

// hostile draws expression trees over every operator of the language
// with no regard for types: operands of the wrong type, columns the
// table lacks, the aggregate median and the comparisons ~ and =.
type hostile struct {
	rng  *rand.Rand
	cols []string
	lits []table.Value
}

var (
	hostileFns = []AggrFn{Count, Min, Max, Sum, Avg, "median"}
	hostileOps = []CmpOp{Lt, Le, Gt, Ge, Ne, "~", "="}
)

func (h *hostile) col() string {
	if h.rng.Intn(6) == 0 {
		return "Nowhere"
	}
	return h.cols[h.rng.Intn(len(h.cols))]
}

func (h *hostile) lit() table.Value { return h.lits[h.rng.Intn(len(h.lits))] }

func (h *hostile) leaf() Expr {
	switch h.rng.Intn(9) {
	case 0, 1:
		return &ValueLit{V: h.lit()}
	case 2, 3:
		return &AllRecords{}
	case 4, 5:
		return &Compare{Column: h.col(), Op: hostileOps[h.rng.Intn(len(hostileOps))], V: h.lit()}
	case 6, 7:
		return &MostFrequent{Column: h.col()}
	default:
		return &alien{}
	}
}

// expr draws a tree of exactly the given depth (a leaf is depth 0);
// each operand is drawn at a random smaller depth.
func (h *hostile) expr(depth int) Expr {
	if depth == 0 {
		return h.leaf()
	}
	sub := func() Expr { return h.expr(h.rng.Intn(depth)) }
	switch h.rng.Intn(12) {
	case 0:
		return &Join{Column: h.col(), Arg: sub()}
	case 1:
		return &ColumnValues{Column: h.col(), Records: sub()}
	case 2:
		return &Prev{Records: sub()}
	case 3:
		return &Next{Records: sub()}
	case 4:
		return &Intersect{L: sub(), R: sub()}
	case 5:
		return &Union{L: sub(), R: sub()}
	case 6:
		return &Aggregate{Fn: hostileFns[h.rng.Intn(len(hostileFns))], Arg: sub()}
	case 7:
		return &Sub{L: sub(), R: sub()}
	case 8:
		return &ArgRecords{Max: h.rng.Intn(2) == 0, Records: sub(), Column: h.col()}
	case 9:
		return &IndexSuperlative{Column: h.col(), Records: sub(), First: h.rng.Intn(2) == 0}
	case 10:
		return &MostFrequent{Vals: sub(), Column: h.col()}
	default:
		return &CompareValues{Max: h.rng.Intn(2) == 0, Vals: sub(), KeyCol: h.col(), ValCol: h.col()}
	}
}

// checkFamily is a CheckError message up to its first quoted or
// trailing detail: "unknown column", "join argument must denote values".
func checkFamily(msg string) string {
	if i := strings.IndexAny(msg, `",`); i >= 0 {
		msg = msg[:i]
	}
	return strings.TrimSpace(msg)
}

// TestCheckErrorGolden pins what Check says about ill-typed trees and
// which node it says it about. oracle.Execute calls Check itself, so the
// differential tests compare Check with Check and cannot see a static
// error drift; this test can. Over 120 000 hostile trees of depth 1–4,
// one SHA-256 covers each tree's CheckError.Msg and the pre-order place
// of CheckError.Expr in the tree (found by pointer identity), and the
// message families are counted.
func TestCheckErrorGolden(t *testing.T) {
	const (
		trees   = 120_000
		wantSHA = "378507593493a984eeba13e686a0e9416292e0239bac7993de9c7c13a70cbdb6"
	)
	wantFamilies := map[string]int{
		"accepted":       22058,
		"unknown column": 16662,
		"intersection operands must denote records":           10118,
		"sub operands must denote values or scalars":          7255,
		"Prev argument must denote records":                   6977,
		"R[Prev] argument must denote records":                6948,
		"union operands must have the same type":              6614,
		"argmax/argmin candidate must denote records":         5794,
		"reverse join argument must denote records":           5604,
		"join argument must denote values":                    5491,
		"index superlative candidate must denote records":     5414,
		"most-frequent candidates must denote values":         5312,
		"comparing-superlative candidates must denote values": 4368,
		"unknown expression type *dcs_test.alien":             3545,
		"unknown comparison operator":                         2272,
		"unknown aggregate":                                   1677,
		"sum argument must denote values":                     939,
		"avg argument must denote values":                     927,
		"max argument must denote values":                     915,
		"min argument must denote values":                     889,
		"count argument must be a unary":                      128,
		"union of scalars is not part of the language":        93,
	}
	tab := olympicsTable(t)
	h := &hostile{
		rng:  rand.New(rand.NewSource(11)),
		cols: []string{"Year", "Country", "City", "year"},
		lits: []table.Value{
			table.StringValue("Athens"), table.StringValue("Greece"),
			table.NumberValue(2004), table.NumberValue(-1),
		},
	}
	sum := sha256.New()
	families := map[string]int{}
	for i := 0; i < trees; i++ {
		e := h.expr(1 + h.rng.Intn(4))
		err := Check(e, tab)
		if err == nil {
			families["accepted"]++
			fmt.Fprintf(sum, "%d ok\n", i)
			continue
		}
		var ce *CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: Check returned %T %v, want a *CheckError", e, err, err)
		}
		at := slices.IndexFunc(Subqueries(e), func(s Expr) bool { return s == ce.Expr })
		if at < 0 {
			t.Fatalf("%s: the error names %s, which is not a node of the tree", e, ce.Expr)
		}
		families[checkFamily(ce.Msg)]++
		fmt.Fprintf(sum, "%d %d %s\n", i, at, ce.Msg)
	}
	got := hex.EncodeToString(sum.Sum(nil))
	for _, f := range slices.Sorted(maps.Keys(families)) {
		t.Logf("%7d %s", families[f], f)
	}
	if got != wantSHA {
		t.Errorf("CheckError golden = %s, want %s", got, wantSHA)
	}
	if !maps.Equal(families, wantFamilies) {
		t.Errorf("message families = %v, want %v", families, wantFamilies)
	}
}

// TestPlanShapeGolden pins the plan Compile builds, node for node: one
// SHA-256 over plan.Format of each compiled root (or the error text)
// for the differential corpus (less scalarFolds), 2 000 seeded qrand
// queries, and every candidate semparse generates over the questions of
// wikitables.DefaultOptions().
func TestPlanShapeGolden(t *testing.T) {
	const wantSHA = "fb848b9c7d3b637cf8f29af24a933cd8a24638bb39cf63a85b4e0ecaeec85855"
	sum := sha256.New()
	counts := map[string]int{}
	shape := func(set string, e Expr, tab *table.Table) {
		counts[set]++
		if c, err := Compile(e, tab); err != nil {
			fmt.Fprintf(sum, "error %v\n", err)
		} else {
			io.WriteString(sum, plan.Format(c.Root))
		}
		sum.Write([]byte{0})
	}
	for _, tc := range diffCorpus {
		if !scalarFolds[tc.src] {
			shape("corpus", MustParse(tc.src), fixtureByName(t, tc.table))
		}
	}
	rng := rand.New(rand.NewSource(7))
	var tab *table.Table
	for i := 0; i < 2000; i++ {
		if i%20 == 0 {
			tab = qrand.Table(rng)
		}
		shape("qrand", qrand.Query(rng, tab, 1+rng.Intn(3)), tab)
	}
	ds := wikitables.Generate(wikitables.DefaultOptions())
	for _, ex := range append(ds.Train, ds.Test...) {
		for _, c := range semparse.GenerateCandidates(semparse.Analyze(ex.Question, ex.Table), ex.Table, nil) {
			shape("candidates", c.Query, ex.Table)
		}
	}
	got := hex.EncodeToString(sum.Sum(nil))
	t.Logf("plans hashed: %v", counts)
	if got != wantSHA {
		t.Errorf("plan shape golden = %s, want %s", got, wantSHA)
	}
}

// TestRenderGolden pins Render, through String, and Parse's reading of
// what it writes: one SHA-256 over each query's rendering and then the
// rendering Parse gives back (or Parse's error) for the differential
// corpus, 2 000 seeded qrand queries, every candidate semparse
// generates over the questions of wikitables.DefaultOptions() and
// TestCheckErrorGolden's 120 000 hostile trees. Every query but the
// hostile ones also parses under a tenth of MaxDepth, the cap's
// headroom over what the parser and the generator make: each count(
// around it is one level, so it still parses inside MaxDepth-MaxDepth/10
// of them. They are also under a tenth of MaxQueryBytes long.
func TestRenderGolden(t *testing.T) {
	const wantSHA = "f444f7989aa3532077e4c1f5a523d4658513422d463395370ff29d43ac8dee06"
	sum := sha256.New()
	counts := map[string]int{}
	render := func(set string, e Expr) {
		counts[set]++
		src := e.String()
		if len(src) > MaxQueryBytes/10 && set != "hostile" {
			t.Errorf("%s query %s is longer than a tenth of MaxQueryBytes", set, src)
		}
		const wrap = MaxDepth - MaxDepth/10
		if _, err := Parse(strings.Repeat("count(", wrap) + src + strings.Repeat(")", wrap)); err != nil && set != "hostile" {
			t.Errorf("%s query %s nests past a tenth of MaxDepth: %v", set, src, err)
		}
		back, err := Parse(src)
		if err != nil {
			fmt.Fprintf(sum, "%s\nerror %v\n", src, err)
			return
		}
		fmt.Fprintf(sum, "%s\n%s\n", src, back)
	}
	for _, tc := range diffCorpus {
		render("corpus", MustParse(tc.src))
	}
	rng := rand.New(rand.NewSource(7))
	var tab *table.Table
	for i := 0; i < 2000; i++ {
		if i%20 == 0 {
			tab = qrand.Table(rng)
		}
		render("qrand", qrand.Query(rng, tab, 1+rng.Intn(3)))
	}
	ds := wikitables.Generate(wikitables.DefaultOptions())
	for _, ex := range append(ds.Train, ds.Test...) {
		for _, c := range semparse.GenerateCandidates(semparse.Analyze(ex.Question, ex.Table), ex.Table, nil) {
			render("candidates", c.Query)
		}
	}
	h := &hostile{
		rng:  rand.New(rand.NewSource(11)),
		cols: []string{"Year", "Country", "City", "year"},
		lits: []table.Value{
			table.StringValue("Athens"), table.StringValue("Greece"),
			table.NumberValue(2004), table.NumberValue(-1),
		},
	}
	for i := 0; i < 120_000; i++ {
		render("hostile", h.expr(1+h.rng.Intn(4)))
	}
	got := hex.EncodeToString(sum.Sum(nil))
	t.Logf("queries rendered: %v", counts)
	if got != wantSHA {
		t.Errorf("render golden = %s, want %s", got, wantSHA)
	}
}

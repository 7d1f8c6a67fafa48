package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// OpKind says which target entry point an Op exercises.
type OpKind string

// Op kinds.
const (
	OpExplain OpKind = "explain" // full pipeline: POST /v1/explain
	OpAnswer  OpKind = "answer"  // answer-only fast path: POST /v1/answer
	OpParse   OpKind = "parse"   // NL -> ranked candidates: POST /v1/parse
	OpBatch   OpKind = "batch"   // POST /v1/explain/batch
	// OpChurn is one full table lifecycle: register a fresh table,
	// explain a query on it, append rows (PATCH), answer the same query
	// on the grown snapshot, then drop the table (DELETE). The target
	// suffixes the table name with a per-execution nonce, so concurrent
	// executions of the same op never collide, and verifies the
	// responses carry the matching snapshot versions — a live
	// snapshot-isolation probe.
	OpChurn OpKind = "churn"
)

// BatchEntry is one query of a batch op.
type BatchEntry struct {
	Table string `json:"table"`
	Query string `json:"query"`
}

// Op is one generated unit of traffic. The JSON form is stable —
// TestGenerateGolden hashes it.
type Op struct {
	Kind     OpKind `json:"kind"`
	Family   string `json:"family"`
	Table    string `json:"table,omitempty"`
	Query    string `json:"query,omitempty"`
	Question string `json:"question,omitempty"`
	// Batch entries, for Kind == OpBatch.
	Batch []BatchEntry `json:"batch,omitempty"`
	// Columns/Rows/AppendRows carry the table payload of a churn op:
	// the registered header and rows, and the rows PATCHed afterwards.
	Columns    []string   `json:"columns,omitempty"`
	Rows       [][]string `json:"rows,omitempty"`
	AppendRows [][]string `json:"append_rows,omitempty"`
	// TimeoutMs overrides the per-op deadline when positive (the
	// adversarial mix uses tiny values to exercise deadline handling).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// familyWeight is one weighted query family of a mix.
type familyWeight struct {
	family string
	weight int
}

// Mix is a named distribution over query families.
type Mix struct {
	Name    string
	weights []familyWeight // ordered, so generation is deterministic
}

// Mixes are the built-in traffic mixes, one per test that asserts on
// a run. Families: lookup, comparative, superlative, aggregate
// (explain ops over the corresponding paper query family), answer
// (answer-only fast path), parse (NL questions), batch, churn (table
// lifecycle), malformed (parse/type errors), unknown_table, hog
// (expensive deep queries over the huge table) and tiny_timeout (hogs
// under a 1ms deadline).
var Mixes = []Mix{
	// a bit of everything
	{Name: "mixed", weights: []familyWeight{
		{"lookup", 20}, {"comparative", 10}, {"superlative", 10}, {"aggregate", 10},
		{"answer", 15}, {"parse", 10}, {"batch", 10}, {"malformed", 5}, {"churn", 5}}},
	// full-pipeline explains across all query families
	{Name: "explain", weights: []familyWeight{
		{"lookup", 30}, {"comparative", 25}, {"aggregate", 25}, {"superlative", 20}}},
	// malformed, unknown-table, expensive and tiny-deadline traffic
	{Name: "adversarial", weights: []familyWeight{
		{"malformed", 25}, {"unknown_table", 10}, {"hog", 35}, {"tiny_timeout", 20}, {"lookup", 10}}},
	// table lifecycle churn (register/append/drop) interleaved with queries
	{Name: "churn", weights: []familyWeight{
		{"churn", 40}, {"lookup", 25}, {"answer", 20}, {"aggregate", 15}}},
	// mutation-heavy churn for durability runs (every churn op crosses the WAL)
	{Name: "durable", weights: []familyWeight{
		{"churn", 50}, {"lookup", 20}, {"answer", 20}, {"aggregate", 10}}},
}

// MixByName resolves a built-in mix.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// generator deterministically synthesizes ops for one (seed, mix)
// pair over a corpus.
type generator struct {
	rng    *rand.Rand
	corpus *Corpus
}

// Generate builds the seed's corpus and the first n ops of the (seed,
// mix) stream. The stream depends only on (seed, mix, corpus content),
// and the corpus is seed-derived, so one seed pins the whole workload.
func Generate(seed int64, mix Mix, n int) (*Corpus, []Op) {
	total := 0
	for _, fw := range mix.weights {
		total += fw.weight
	}
	// Offset the stream seed so table content and query choices come
	// from independent sequences even though both derive from one seed.
	g := &generator{rng: rand.New(rand.NewSource(seed ^ 0x5e3779b97f4a7c15)), corpus: NewCorpus(seed)}
	ops := make([]Op, n)
	for i := range ops {
		// Draw a family from the mix weights.
		k := g.rng.Intn(total)
		for _, fw := range mix.weights {
			if k < fw.weight {
				ops[i] = g.genFamily(fw.family)
				break
			}
			k -= fw.weight
		}
	}
	return g.corpus, ops
}

func (g *generator) genFamily(family string) Op {
	switch family {
	case "lookup":
		t := g.anyTable()
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.lookupExpr(t).String()}
	case "comparative":
		t := g.anyTable()
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.comparativeExpr(t).String()}
	case "superlative":
		t := g.anyTable()
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.superlativeExpr(t).String()}
	case "aggregate":
		t := g.anyTable()
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.aggregateExpr(t).String()}
	case "answer":
		t := g.anyTable()
		return Op{Kind: OpAnswer, Family: family, Table: t.Name(), Query: g.validExpr(t).String()}
	case "parse":
		t := g.anyTable()
		return Op{Kind: OpParse, Family: family, Table: t.Name(), Question: g.question(t)}
	case "batch":
		return g.batchOp()
	case "malformed":
		t := g.anyTable()
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.malformedQuery()}
	case "unknown_table":
		return Op{Kind: OpExplain, Family: family, Table: "no_such_table", Query: "count(Record)"}
	case "hog":
		t, _ := g.corpus.Table(TableHuge)
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.hogExpr(t).String()}
	case "tiny_timeout":
		t, _ := g.corpus.Table(TableHuge)
		return Op{Kind: OpExplain, Family: family, Table: t.Name(), Query: g.hogExpr(t).String(), TimeoutMs: 1}
	case "churn":
		return g.churnOp()
	default:
		panic(fmt.Sprintf("unknown workload family %q", family))
	}
}

// anyTable picks one of the ordinary mix tables (never the huge
// hog-only table, whose per-query cost would swamp a latency mix).
func (g *generator) anyTable() *table.Table {
	t, _ := g.corpus.Table(mixTables[g.rng.Intn(len(mixTables))])
	return t
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// presentValue draws a value that occurs in the column, so
// denotations built on it are never empty.
func (g *generator) presentValue(t *table.Table, colName string) table.Value {
	col, _ := t.ColumnIndex(colName)
	return t.Value(g.rng.Intn(t.NumRows()), col)
}

// missyValue is presentValue with an occasional guaranteed miss, so
// empty denotations stay covered where they are legal (lookups).
func (g *generator) missyValue(t *table.Table, colName string) table.Value {
	if g.rng.Intn(10) == 0 {
		return table.StringValue("Atlantis")
	}
	return g.presentValue(t, colName)
}

func (g *generator) join(t *table.Table, colName string) dcs.Expr {
	return &dcs.Join{Column: colName, Arg: &dcs.ValueLit{V: g.presentValue(t, colName)}}
}

// compare builds a numeric comparison anchored on an existing cell
// value; Ge/Le match at least the anchoring row, the strict forms may
// legally denote empty record sets.
func (g *generator) compare(t *table.Table) dcs.Expr {
	col := pick(g.rng, numericColumns)
	op := pick(g.rng, []dcs.CmpOp{dcs.Lt, dcs.Le, dcs.Gt, dcs.Ge, dcs.Ne})
	return &dcs.Compare{Column: col, Op: op, V: g.presentValue(t, col)}
}

// nonEmptyCompare restricts to operators guaranteed to match the
// anchor row.
func (g *generator) nonEmptyCompare(t *table.Table) dcs.Expr {
	col := pick(g.rng, numericColumns)
	op := pick(g.rng, []dcs.CmpOp{dcs.Le, dcs.Ge})
	return &dcs.Compare{Column: col, Op: op, V: g.presentValue(t, col)}
}

// lookupExpr: point lookups and projections — the "who/what/where"
// family of Table 1. Lookups occasionally probe values absent from
// the table (missyValue), so empty denotations stay covered.
func (g *generator) lookupExpr(t *table.Table) dcs.Expr {
	col := pick(g.rng, anyColumns)
	base := &dcs.Join{Column: col, Arg: &dcs.ValueLit{V: g.missyValue(t, col)}}
	switch g.rng.Intn(3) {
	case 0:
		return base
	case 1:
		return &dcs.ColumnValues{Column: pick(g.rng, anyColumns), Records: base}
	default:
		return &dcs.Intersect{L: base, R: g.join(t, pick(g.rng, anyColumns))}
	}
}

// comparativeExpr: numeric comparisons plus positional Prev/Next.
func (g *generator) comparativeExpr(t *table.Table) dcs.Expr {
	base := g.compare(t)
	switch g.rng.Intn(4) {
	case 0:
		return base
	case 1:
		return &dcs.ColumnValues{Column: pick(g.rng, anyColumns), Records: base}
	case 2:
		if g.rng.Intn(2) == 0 {
			return &dcs.Prev{Records: g.join(t, pick(g.rng, textColumns))}
		}
		return &dcs.Next{Records: g.join(t, pick(g.rng, textColumns))}
	default:
		return &dcs.Intersect{L: base, R: g.join(t, pick(g.rng, textColumns))}
	}
}

// superlativeExpr: argmax/argmin over records, index superlatives,
// most-frequent and binary value comparisons.
func (g *generator) superlativeExpr(t *table.Table) dcs.Expr {
	max := g.rng.Intn(2) == 0
	switch g.rng.Intn(4) {
	case 0:
		var records dcs.Expr = &dcs.AllRecords{}
		if g.rng.Intn(2) == 0 {
			records = g.compare(t)
		}
		return &dcs.ArgRecords{Max: max, Records: records, Column: pick(g.rng, numericColumns)}
	case 1:
		return &dcs.IndexSuperlative{Column: pick(g.rng, anyColumns), Records: g.join(t, pick(g.rng, textColumns)), First: max}
	case 2:
		col := pick(g.rng, textColumns)
		if g.rng.Intn(2) == 0 {
			return &dcs.MostFrequent{Column: col}
		}
		return &dcs.MostFrequent{Column: col, Vals: g.valueUnion(t, col)}
	default:
		valCol := pick(g.rng, textColumns)
		return &dcs.CompareValues{Max: max, Vals: g.valueUnion(t, valCol), KeyCol: pick(g.rng, numericColumns), ValCol: valCol}
	}
}

// aggregateExpr: count / min / max / sum / avg and difference
// arithmetic.
func (g *generator) aggregateExpr(t *table.Table) dcs.Expr {
	switch g.rng.Intn(3) {
	case 0:
		var records dcs.Expr = &dcs.AllRecords{}
		if g.rng.Intn(2) == 0 {
			records = g.compare(t)
		}
		return &dcs.Aggregate{Fn: dcs.Count, Arg: records}
	case 1:
		// min/max/sum/avg error on empty sets, so these draw from
		// record expressions guaranteed non-empty.
		fn := pick(g.rng, []dcs.AggrFn{dcs.Min, dcs.Max, dcs.Sum, dcs.Avg})
		return &dcs.Aggregate{Fn: fn, Arg: &dcs.ColumnValues{Column: pick(g.rng, numericColumns), Records: g.nonEmptyRecords(t)}}
	default:
		col := pick(g.rng, textColumns)
		count := func() dcs.Expr {
			return &dcs.Aggregate{Fn: dcs.Count, Arg: g.join(t, col)}
		}
		return &dcs.Sub{L: count(), R: count()}
	}
}

// records draws a small record-set expression used as an aggregate or
// batch building block.
func (g *generator) records(t *table.Table) dcs.Expr {
	switch g.rng.Intn(3) {
	case 0:
		return &dcs.AllRecords{}
	case 1:
		return g.join(t, pick(g.rng, textColumns))
	default:
		return g.compare(t)
	}
}

// nonEmptyRecords is records restricted to expressions that denote at
// least one row.
func (g *generator) nonEmptyRecords(t *table.Table) dcs.Expr {
	switch g.rng.Intn(3) {
	case 0:
		return &dcs.AllRecords{}
	case 1:
		return g.join(t, pick(g.rng, textColumns))
	default:
		return g.nonEmptyCompare(t)
	}
}

// valueUnion builds a union of two literals drawn from a column.
func (g *generator) valueUnion(t *table.Table, colName string) dcs.Expr {
	return &dcs.Union{
		L: &dcs.ValueLit{V: g.presentValue(t, colName)},
		R: &dcs.ValueLit{V: g.presentValue(t, colName)},
	}
}

// validExpr draws uniformly across the four well-formed families.
func (g *generator) validExpr(t *table.Table) dcs.Expr {
	switch g.rng.Intn(4) {
	case 0:
		return g.lookupExpr(t)
	case 1:
		return g.comparativeExpr(t)
	case 2:
		return g.superlativeExpr(t)
	default:
		return g.aggregateExpr(t)
	}
}

// hogExpr builds a deliberately expensive but well-formed query over
// the huge table: a tall union/argmax tower whose every level scans
// thousands of rows, so one uncached computation costs real CPU time.
// A unique Ne literal keeps each hog a distinct cache key, so a hog
// storm cannot be served from the result LRU.
func (g *generator) hogExpr(t *table.Table) dcs.Expr {
	var u dcs.Expr = g.join(t, pick(g.rng, textColumns))
	for range 12 {
		u = &dcs.Union{L: u, R: &dcs.ArgRecords{
			Max:     g.rng.Intn(2) == 0,
			Records: &dcs.Union{L: g.records(t), R: g.records(t)},
			Column:  pick(g.rng, numericColumns),
		}}
	}
	deep := &dcs.ArgRecords{
		Max:     g.rng.Intn(2) == 0,
		Records: &dcs.Intersect{L: u, R: &dcs.Compare{Column: "Games", Op: dcs.Ne, V: table.NumberValue(float64(g.rng.Intn(1 << 20)))}},
		Column:  pick(g.rng, numericColumns),
	}
	return &dcs.ColumnValues{Column: pick(g.rng, anyColumns), Records: deep}
}

// malformedQueries are broken in distinct ways: lexer errors,
// unbalanced parens, missing operands, unknown columns (type errors)
// and empty input.
var malformedQueries = []string{
	"max(",
	"R[Year.City",
	"((City.Athens)",
	"Games >>",
	"",
	"argmax(Record,)",
	"Population.10",
	"R[Frobnicate].Record",
	"sub(count(Record)",
	"min(R[Nation].Record)", // aggregating text: dynamic exec error
}

func (g *generator) malformedQuery() string {
	return pick(g.rng, malformedQueries)
}

// churnOp builds one table-lifecycle op: a fresh table of 4-8 rows in
// the corpus schema, 1-4 rows to append, and a query valid on both the
// registered and the appended state (count always is; the lookup is
// anchored on a registered row, which appends cannot remove).
func (g *generator) churnOp() Op {
	n := 4 + g.rng.Intn(5)
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = g.corpusRow()
	}
	extra := make([][]string, 1+g.rng.Intn(4))
	for r := range extra {
		extra[r] = g.corpusRow()
	}
	query := "count(Record)"
	if g.rng.Intn(2) == 0 {
		anchor := rows[g.rng.Intn(n)][0] // Nation column
		query = (&dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Join{Column: "Nation", Arg: &dcs.ValueLit{V: table.StringValue(anchor)}}}).String()
	}
	return Op{Kind: OpChurn, Family: "churn", Table: "wl_churn", Columns: corpusColumns, Rows: rows, AppendRows: extra, Query: query}
}

// corpusRow draws one row in the shared corpus schema.
func (g *generator) corpusRow() []string {
	return []string{
		nations[g.rng.Intn(len(nations))],
		cities[g.rng.Intn(len(cities))],
		strconv.Itoa(1896 + g.rng.Intn(40)*4),
		strconv.Itoa(g.rng.Intn(300)),
		results[g.rng.Intn(len(results))],
	}
}

// batchOp bundles 4-16 valid queries over random corpus tables.
func (g *generator) batchOp() Op {
	n := 4 + g.rng.Intn(13)
	entries := make([]BatchEntry, n)
	for i := range entries {
		t := g.anyTable()
		entries[i] = BatchEntry{Table: t.Name(), Query: g.validExpr(t).String()}
	}
	return Op{Kind: OpBatch, Family: "batch", Batch: entries}
}

// questionTemplates phrase NL questions over the corpus schema; {N}
// and {C} are replaced with a nation / city drawn from the table.
var questionTemplates = []string{
	"which nation had the most games",
	"how many games did {N} play",
	"where did {N} play",
	"which city hosted the fewest games",
	"what year did {N} reach the final",
	"how many nations played in {C}",
	"which nation appears most often",
	"what is the total number of games",
	"who played after {N}",
	"which year had more than 100 games",
}

func (g *generator) question(t *table.Table) string {
	q := pick(g.rng, questionTemplates)
	q = strings.ReplaceAll(q, "{N}", g.presentValue(t, "Nation").String())
	q = strings.ReplaceAll(q, "{C}", g.presentValue(t, "City").String())
	return q
}

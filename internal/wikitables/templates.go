package wikitables

import (
	"fmt"
	"math/rand"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// questionTemplate builds one (NL question, gold lambda DCS query) pair
// grounded in a concrete table, or reports ok=false when the table
// cannot support it (e.g. no value with exactly one record).
type questionTemplate struct {
	name  string
	build func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool)
}

// phrasing pools: the first variants use the parser's trigger vocabulary;
// later ones are deliberately adversarial (synonyms outside the trigger
// lexicon), reproducing the linguistic variance of crowd-written
// questions that makes the baseline parser fail on a realistic fraction.

func lit(v table.Value) dcs.Expr { return &dcs.ValueLit{V: v} }

func join(col string, v table.Value) dcs.Expr {
	return &dcs.Join{Column: col, Arg: lit(v)}
}

// columnsOfKind returns indices of domain columns matching pred.
func columnsWhere(d Domain, pred func(ColumnKind) bool) []int {
	var out []int
	for i, c := range d.Columns {
		if pred(c.Kind) {
			out = append(out, i)
		}
	}
	return out
}

func textCols(d Domain) []int {
	return columnsWhere(d, func(k ColumnKind) bool { return !NumericKind(k) })
}
func numCols(d Domain) []int { return columnsWhere(d, NumericKind) }
func pickCol(rng *rand.Rand, cols []int) (int, bool) {
	if len(cols) == 0 {
		return 0, false
	}
	return cols[rng.Intn(len(cols))], true
}

// anyValue draws a distinct value of a column.
func anyValue(rng *rand.Rand, t *table.Table, col int) (table.Value, bool) {
	vals := t.DistinctColumnValues(col)
	if len(vals) == 0 {
		return table.Value{}, false
	}
	return vals[rng.Intn(len(vals))], true
}

// uniqueValue draws a value occurring in exactly one record (needed by
// value-difference questions, whose operands must be singletons).
func uniqueValue(rng *rand.Rand, t *table.Table, col int) (table.Value, bool) {
	var singles []table.Value
	for _, v := range t.DistinctColumnValues(col) {
		if len(t.RowsFor(col, v)) == 1 {
			singles = append(singles, v)
		}
	}
	if len(singles) == 0 {
		return table.Value{}, false
	}
	return singles[rng.Intn(len(singles))], true
}

// twoValues draws two distinct values of a column; unique selects
// single-record values only.
func twoValues(rng *rand.Rand, t *table.Table, col int, unique bool) (table.Value, table.Value, bool) {
	drawer := anyValue
	if unique {
		drawer = uniqueValue
	}
	a, ok := drawer(rng, t, col)
	if !ok {
		return table.Value{}, table.Value{}, false
	}
	for i := 0; i < 12; i++ {
		b, ok := drawer(rng, t, col)
		if ok && !b.Equal(a) {
			return a, b, true
		}
	}
	return table.Value{}, table.Value{}, false
}

func choosef(rng *rand.Rand, variants []string, args ...any) string {
	return fmt.Sprintf(variants[rng.Intn(len(variants))], args...)
}

var templates = []questionTemplate{
	{name: "lookup", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		pc := rng.Intn(t.NumCols())
		if pc == jc {
			pc = (pc + 1) % t.NumCols()
		}
		v, ok := anyValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"what is the %[1]s when %[2]s is %[3]s?",
			"which %[1]s has %[2]s %[3]s?",
			"what was the %[1]s for %[3]s?",
			"name the %[1]s of %[3]s.",
		}, t.Column(pc), t.Column(jc), v)
		return q, &dcs.ColumnValues{Column: t.Column(pc), Records: join(t.Column(jc), v)}, true
	}},

	{name: "count", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		v, ok := anyValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"how many rows have %[1]s %[2]s?",
			"what is the total number of %[3]ss where %[1]s is %[2]s?",
			"how many times does %[2]s appear in column %[1]s?",
			"tally the %[3]ss with %[1]s %[2]s.",
		}, t.Column(jc), v, d.RowNoun)
		return q, &dcs.Aggregate{Fn: dcs.Count, Arg: join(t.Column(jc), v)}, true
	}},

	{name: "sum", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		v, ok := anyValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"what is the total %[1]s where %[2]s is %[3]s?",
			"what is the sum of %[1]s for %[3]s?",
			"add up the %[1]s of %[3]s.",
		}, t.Column(nc), t.Column(jc), v)
		return q, &dcs.Aggregate{Fn: dcs.Sum, Arg: &dcs.ColumnValues{Column: t.Column(nc), Records: join(t.Column(jc), v)}}, true
	}},

	{name: "avg", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		v, ok := anyValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"what is the average %[1]s where %[2]s is %[3]s?",
			"what is the mean %[1]s for %[3]s?",
			"what %[1]s does %[3]s typically have?",
		}, t.Column(nc), t.Column(jc), v)
		return q, &dcs.Aggregate{Fn: dcs.Avg, Arg: &dcs.ColumnValues{Column: t.Column(nc), Records: join(t.Column(jc), v)}}, true
	}},

	{name: "max-scalar", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		v, ok := anyValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		maxSide := rng.Intn(2) == 0
		fn := dcs.Max
		adj := []string{
			"what is the highest %[1]s where %[2]s is %[3]s?",
			"what is the maximum %[1]s for %[3]s?",
			"what is the largest %[1]s recorded for %[3]s?",
		}
		if !maxSide {
			fn = dcs.Min
			adj = []string{
				"what is the lowest %[1]s where %[2]s is %[3]s?",
				"what is the minimum %[1]s for %[3]s?",
				"what is the smallest %[1]s recorded for %[3]s?",
			}
		}
		q := choosef(rng, adj, t.Column(nc), t.Column(jc), v)
		return q, &dcs.Aggregate{Fn: fn, Arg: &dcs.ColumnValues{Column: t.Column(nc), Records: join(t.Column(jc), v)}}, true
	}},

	{name: "argmax-records", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		pc, ok := pickCol(rng, textCols(d))
		if !ok || pc == nc {
			return "", nil, false
		}
		maxSide := rng.Intn(2) == 0
		var q string
		if maxSide {
			q = choosef(rng, []string{
				"which %[1]s has the highest %[2]s?",
				"which %[1]s has the most %[2]s?",
				"who tops the table on %[2]s?",
			}, t.Column(pc), t.Column(nc))
		} else {
			q = choosef(rng, []string{
				"which %[1]s has the lowest %[2]s?",
				"which %[1]s has the fewest %[2]s?",
				"who sits at the bottom on %[2]s?",
			}, t.Column(pc), t.Column(nc))
		}
		return q, &dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.ArgRecords{Max: maxSide, Records: &dcs.AllRecords{}, Column: t.Column(nc)}}, true
	}},

	{name: "index-superlative", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		pc := rng.Intn(t.NumCols())
		if pc == jc {
			pc = (pc + 1) % t.NumCols()
		}
		v, ok := anyValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		last := rng.Intn(2) == 0
		var q string
		if last {
			q = choosef(rng, []string{
				"what is the %[1]s in the last row where %[2]s is %[3]s?",
				"what was the final %[1]s listed for %[3]s?",
			}, t.Column(pc), t.Column(jc), v)
		} else {
			q = choosef(rng, []string{
				"what is the %[1]s in the first row where %[2]s is %[3]s?",
				"what was the earliest %[1]s listed for %[3]s?",
			}, t.Column(pc), t.Column(jc), v)
		}
		return q, &dcs.IndexSuperlative{Column: t.Column(pc), Records: join(t.Column(jc), v), First: !last}, true
	}},

	{name: "diff-values", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		a, b, ok := twoValues(rng, t, jc, true)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"what is the difference in %[1]s between %[2]s and %[3]s?",
			"how much more %[1]s does %[2]s have than %[3]s?",
			"by how much does %[2]s exceed %[3]s in %[1]s?",
		}, t.Column(nc), a, b)
		return q, &dcs.Sub{
			L: &dcs.ColumnValues{Column: t.Column(nc), Records: join(t.Column(jc), a)},
			R: &dcs.ColumnValues{Column: t.Column(nc), Records: join(t.Column(jc), b)},
		}, true
	}},

	{name: "diff-counts", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		a, b, ok := twoValues(rng, t, jc, false)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"how many more rows have %[1]s %[2]s than %[3]s?",
			"what is the difference in appearances between %[2]s and %[3]s in column %[1]s?",
		}, t.Column(jc), a, b)
		return q, &dcs.Sub{
			L: &dcs.Aggregate{Fn: dcs.Count, Arg: join(t.Column(jc), a)},
			R: &dcs.Aggregate{Fn: dcs.Count, Arg: join(t.Column(jc), b)},
		}, true
	}},

	{name: "comparison", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		pc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		col, _ := t.ColumnIndex(t.Column(nc))
		v, ok := anyValue(rng, t, col)
		if !ok || v.Kind != table.Number {
			return "", nil, false
		}
		more := rng.Intn(2) == 0
		op := dcs.Gt
		var q string
		if more {
			q = choosef(rng, []string{
				"which %[1]s have more than %[2]s %[3]s?",
				"which %[1]s scored over %[2]s in %[3]s?",
			}, t.Column(pc), v, t.Column(nc))
		} else {
			op = dcs.Lt
			q = choosef(rng, []string{
				"which %[1]s have less than %[2]s %[3]s?",
				"which %[1]s stayed under %[2]s in %[3]s?",
			}, t.Column(pc), v, t.Column(nc))
		}
		return q, &dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.Compare{Column: t.Column(nc), Op: op, V: v}}, true
	}},

	{name: "prev-next", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		pc := rng.Intn(t.NumCols())
		if pc == jc {
			pc = (pc + 1) % t.NumCols()
		}
		v, ok := uniqueValue(rng, t, jc)
		if !ok {
			return "", nil, false
		}
		after := rng.Intn(2) == 0
		var q string
		var recs dcs.Expr
		if after {
			q = choosef(rng, []string{
				"what is the %[1]s right after the row where %[2]s is %[3]s?",
				"which %[1]s comes next after %[3]s?",
			}, t.Column(pc), t.Column(jc), v)
			recs = &dcs.Next{Records: join(t.Column(jc), v)}
		} else {
			q = choosef(rng, []string{
				"what is the %[1]s right before the row where %[2]s is %[3]s?",
				"which %[1]s comes just previous to %[3]s?",
			}, t.Column(pc), t.Column(jc), v)
			recs = &dcs.Prev{Records: join(t.Column(jc), v)}
		}
		return q, &dcs.ColumnValues{Column: t.Column(pc), Records: recs}, true
	}},

	{name: "intersect", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		tcols := textCols(d)
		if len(tcols) < 2 {
			return "", nil, false
		}
		jc1 := tcols[rng.Intn(len(tcols))]
		jc2 := tcols[rng.Intn(len(tcols))]
		if jc1 == jc2 {
			return "", nil, false
		}
		pc := rng.Intn(t.NumCols())
		if pc == jc1 || pc == jc2 {
			return "", nil, false
		}
		// Draw a co-occurring pair so the intersection is non-empty.
		r := rng.Intn(t.NumRows())
		v1 := t.Value(r, jc1)
		v2 := t.Value(r, jc2)
		q := choosef(rng, []string{
			"what is the %[1]s where %[2]s is %[3]s and %[4]s is %[5]s?",
			"which %[1]s has both %[2]s %[3]s and %[4]s %[5]s?",
		}, t.Column(pc), t.Column(jc1), v1, t.Column(jc2), v2)
		return q, &dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.Intersect{
			L: join(t.Column(jc1), v1), R: join(t.Column(jc2), v2)}}, true
	}},

	{name: "union-count", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		a, b, ok := twoValues(rng, t, jc, false)
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"how many rows have %[1]s %[2]s or %[3]s?",
			"what is the number of %[4]ss where %[1]s is either %[2]s or %[3]s?",
		}, t.Column(jc), a, b, d.RowNoun)
		return q, &dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Union{
			L: join(t.Column(jc), a), R: join(t.Column(jc), b)}}, true
	}},

	{name: "most-frequent", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		jc, ok := pickCol(rng, textCols(d))
		if !ok {
			return "", nil, false
		}
		q := choosef(rng, []string{
			"which %[1]s appears the most?",
			"which %[1]s was recorded the most?",
			"what is the most common %[1]s?",
		}, t.Column(jc))
		return q, &dcs.MostFrequent{Column: t.Column(jc)}, true
	}},

	{name: "compare-values", build: func(rng *rand.Rand, t *table.Table, d Domain) (string, dcs.Expr, bool) {
		nc, ok := pickCol(rng, numCols(d))
		if !ok {
			return "", nil, false
		}
		jc, ok := pickCol(rng, textCols(d))
		if !ok || jc == nc {
			return "", nil, false
		}
		a, b, ok := twoValues(rng, t, jc, true)
		if !ok {
			return "", nil, false
		}
		maxSide := rng.Intn(2) == 0
		var q string
		if maxSide {
			q = choosef(rng, []string{
				"who has the higher %[1]s, %[2]s or %[3]s?",
				"between %[2]s and %[3]s, which has more %[1]s?",
			}, t.Column(nc), a, b)
		} else {
			q = choosef(rng, []string{
				"who has the lower %[1]s, %[2]s or %[3]s?",
				"between %[2]s and %[3]s, which has less %[1]s?",
			}, t.Column(nc), a, b)
		}
		vals := &dcs.Union{L: lit(a), R: lit(b)}
		return q, &dcs.CompareValues{Max: maxSide, Vals: vals, KeyCol: t.Column(nc), ValCol: t.Column(jc)}, true
	}},
}

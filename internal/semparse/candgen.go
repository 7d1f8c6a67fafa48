package semparse

import (
	"iter"
	"sort"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Candidate is one generated query with its execution result and
// features.
type Candidate struct {
	Query    dcs.Expr
	Result   *dcs.Result // nil when execution failed
	Features Features
	Score    float64
}

// Features is the feature vector φ(x, T, z) of one candidate, read by
// name.
type Features map[string]float64

// Get returns the value of the named feature, 0 when it is absent.
func (f Features) Get(name string) float64 { return f[name] }

// All iterates the features present, in name order.
func (f Features) All() iter.Seq2[string, float64] {
	return func(yield func(string, float64) bool) {
		names := make([]string, 0, len(f))
		for name := range f {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !yield(name, f[name]) {
				return
			}
		}
	}
}

// Key returns the canonical identity of the candidate's query.
func (c *Candidate) Key() string { return c.Query.String() }

// generation caps keep the enumeration bounded on wide tables.
const (
	maxRecordsCands = 24
	maxProjCols     = 5
	maxCandidates   = 512
)

// GenerateCandidates enumerates well-typed lambda DCS queries grounded
// in the question's anchors, executes each, and returns the deduplicated
// pool. This is the "floating" part of the parser: compositions are
// driven by the table and anchors, triggers only add features (the model
// learns to use them), so mis-triggered compositions exist in the pool —
// exactly the realistic error profile the paper's user study corrects.
func GenerateCandidates(q *Question, t *table.Table) []*Candidate {
	recs := recordsCandidates(q, t)
	projCols := projectionColumns(q, t)

	var queries []dcs.Expr

	// Records-level queries are rarely final answers but keep the pool
	// honest (the model learns to dis-prefer them via type features).
	for _, r := range recs {
		queries = append(queries, r)
	}

	// Values: projections of every records candidate.
	var valueQueries []dcs.Expr
	for _, r := range recs {
		for _, pc := range projCols {
			valueQueries = append(valueQueries, &dcs.ColumnValues{Column: t.Column(pc), Records: r})
		}
	}

	// Prev/Next around join-based records.
	for _, r := range recs {
		if isJoinish(r) {
			for _, pc := range projCols {
				valueQueries = append(valueQueries,
					&dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.Prev{Records: r}},
					&dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.Next{Records: r}})
			}
		}
	}

	// Superlatives.
	numCols := numericColumns(t)
	for _, r := range recs {
		for _, nc := range numCols {
			for _, pc := range projCols {
				if pc == nc {
					continue
				}
				valueQueries = append(valueQueries,
					&dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.ArgRecords{Max: true, Records: r, Column: t.Column(nc)}},
					&dcs.ColumnValues{Column: t.Column(pc), Records: &dcs.ArgRecords{Max: false, Records: r, Column: t.Column(nc)}})
			}
		}
		if isJoinish(r) {
			for _, pc := range projCols {
				valueQueries = append(valueQueries,
					&dcs.IndexSuperlative{Column: t.Column(pc), Records: r, First: false},
					&dcs.IndexSuperlative{Column: t.Column(pc), Records: r, First: true})
			}
		}
	}

	// Most-frequent and comparing values over anchored value pairs.
	for _, pc := range projCols {
		valueQueries = append(valueQueries, &dcs.MostFrequent{Column: t.Column(pc)})
	}
	pairs := sameColumnAnchorPairs(q)
	for _, p := range pairs {
		vals := &dcs.Union{L: &dcs.ValueLit{V: p.a.Val}, R: &dcs.ValueLit{V: p.b.Val}}
		valueQueries = append(valueQueries, &dcs.MostFrequent{Vals: vals, Column: t.Column(p.a.Col)})
		for _, nc := range numCols {
			if nc == p.a.Col {
				continue
			}
			valueQueries = append(valueQueries,
				&dcs.CompareValues{Max: true, Vals: vals, KeyCol: t.Column(nc), ValCol: t.Column(p.a.Col)},
				&dcs.CompareValues{Max: false, Vals: vals, KeyCol: t.Column(nc), ValCol: t.Column(p.a.Col)})
		}
	}
	queries = append(queries, valueQueries...)

	// Scalars: counts, aggregates, differences.
	for _, r := range recs {
		queries = append(queries, &dcs.Aggregate{Fn: dcs.Count, Arg: r})
	}
	for _, vq := range valueQueries {
		if cv, ok := vq.(*dcs.ColumnValues); ok && isNumericColumn(t, cv.Column) && isJoinish(cv.Records) {
			for _, fn := range []dcs.AggrFn{dcs.Max, dcs.Min, dcs.Sum, dcs.Avg, dcs.Count} {
				queries = append(queries, &dcs.Aggregate{Fn: fn, Arg: cv})
			}
		}
	}
	for _, p := range pairs {
		joinCol := t.Column(p.a.Col)
		// Occurrence difference.
		queries = append(queries, &dcs.Sub{
			L: &dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Join{Column: joinCol, Arg: &dcs.ValueLit{V: p.a.Val}}},
			R: &dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Join{Column: joinCol, Arg: &dcs.ValueLit{V: p.b.Val}}},
		})
		// Value difference on each numeric column.
		for _, nc := range numCols {
			if nc == p.a.Col {
				continue
			}
			queries = append(queries, &dcs.Sub{
				L: &dcs.ColumnValues{Column: t.Column(nc), Records: &dcs.Join{Column: joinCol, Arg: &dcs.ValueLit{V: p.a.Val}}},
				R: &dcs.ColumnValues{Column: t.Column(nc), Records: &dcs.Join{Column: joinCol, Arg: &dcs.ValueLit{V: p.b.Val}}},
			})
		}
	}

	// Execute, dedupe, featurize.
	seen := make(map[string]bool, len(queries))
	var out []*Candidate
	for _, e := range queries {
		key := e.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if dcs.Check(e, t) != nil {
			continue
		}
		// Answer-only fast path: candidate results feed ranking and
		// gold-answer comparison, never highlights, so witness-cell
		// capture would be pure overhead on this hot loop.
		res, err := dcs.ExecuteAnswer(e, t)
		if err != nil {
			continue // dynamic type errors: not a viable candidate
		}
		out = append(out, &Candidate{Query: e, Result: res, Features: Featurize(q, t, e, res)})
		if len(out) >= maxCandidates {
			break
		}
	}
	return out
}

type anchorPair struct{ a, b EntityAnchor }

// sameColumnAnchorPairs returns ordered pairs of distinct entity anchors
// grounded in the same column (the shape behind "between X and Y"
// questions).
func sameColumnAnchorPairs(q *Question) []anchorPair {
	var out []anchorPair
	for i := 0; i < len(q.EntityAnchors); i++ {
		for j := 0; j < len(q.EntityAnchors); j++ {
			if i == j {
				continue
			}
			a, b := q.EntityAnchors[i], q.EntityAnchors[j]
			if a.Col == b.Col && !a.Val.Equal(b.Val) {
				out = append(out, anchorPair{a: a, b: b})
			}
		}
	}
	return out
}

// recordsCandidates builds the record-set building blocks: joins on
// anchored entities, comparisons on question numbers, and their
// intersections/unions.
func recordsCandidates(q *Question, t *table.Table) []dcs.Expr {
	var out []dcs.Expr
	out = append(out, &dcs.AllRecords{})

	var joins []dcs.Expr
	for _, a := range q.EntityAnchors {
		joins = append(joins, &dcs.Join{Column: t.Column(a.Col), Arg: &dcs.ValueLit{V: a.Val}})
	}
	out = append(out, joins...)

	// Comparisons: question numbers against numeric columns.
	for _, n := range q.Numbers {
		for _, nc := range numericColumns(t) {
			for _, op := range []dcs.CmpOp{dcs.Gt, dcs.Ge, dcs.Lt, dcs.Le} {
				out = append(out, &dcs.Compare{Column: t.Column(nc), Op: op, V: table.NumberValue(n)})
			}
		}
	}

	// Intersections of joins on different columns; unions on the same.
	for i := 0; i < len(joins); i++ {
		for j := i + 1; j < len(joins); j++ {
			ji := joins[i].(*dcs.Join)
			jj := joins[j].(*dcs.Join)
			if ji.Column == jj.Column {
				out = append(out, &dcs.Union{L: ji, R: jj})
			} else {
				out = append(out, &dcs.Intersect{L: ji, R: jj})
			}
		}
	}

	if len(out) > maxRecordsCands {
		out = out[:maxRecordsCands]
	}
	return out
}

// projectionColumns picks columns worth projecting: anchored columns
// first, then the remaining columns, capped.
func projectionColumns(q *Question, t *table.Table) []int {
	var out []int
	used := make(map[int]bool)
	add := func(c int) {
		if !used[c] && len(out) < maxProjCols {
			used[c] = true
			out = append(out, c)
		}
	}
	for _, c := range q.ColumnAnchors {
		add(c)
	}
	for c := 0; c < t.NumCols(); c++ {
		add(c)
	}
	return out
}

// numericColumns lists columns where at least half the cells are
// numeric or dates.
func numericColumns(t *table.Table) []int {
	var out []int
	for c := 0; c < t.NumCols(); c++ {
		numeric := 0
		for r := 0; r < t.NumRows(); r++ {
			if t.Value(r, c).IsNumeric() {
				numeric++
			}
		}
		if numeric*2 >= t.NumRows() && t.NumRows() > 0 {
			out = append(out, c)
		}
	}
	return out
}

func isNumericColumn(t *table.Table, name string) bool {
	c, ok := t.ColumnIndex(name)
	if !ok {
		return false
	}
	for _, nc := range numericColumns(t) {
		if nc == c {
			return true
		}
	}
	return false
}

// isJoinish reports whether a records expression is anchored in cell
// matches (joins and their set combinations) rather than the whole
// table — Prev/Next and index superlatives only make sense over these.
func isJoinish(e dcs.Expr) bool {
	switch x := e.(type) {
	case *dcs.Join, *dcs.Compare:
		return true
	case *dcs.Intersect:
		return isJoinish(x.L) && isJoinish(x.R)
	case *dcs.Union:
		return isJoinish(x.L) && isJoinish(x.R)
	}
	return false
}

// sortCandidates orders by score descending, breaking ties by query
// string for determinism.
func sortCandidates(cands []*Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Key() < cands[j].Key()
	})
}

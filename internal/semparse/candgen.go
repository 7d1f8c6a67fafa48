package semparse

import (
	"slices"
	"strings"

	"nlexplain/internal/dcs"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Candidate is one generated query with its execution result and
// features.
type Candidate struct {
	Query    dcs.Expr
	Result   *dcs.Result // nil when execution failed
	Features Features
	Score    float64
	// text is Query in the surface syntax, rendered when the candidate
	// was generated.
	text string
}

// Key returns the canonical identity of the candidate's query: its text
// in the surface syntax.
func (c *Candidate) Key() string {
	if c.text == "" {
		return c.Query.String()
	}
	return c.text
}

// generation caps keep the enumeration bounded on wide tables.
const (
	maxRecordsCands = 24
	maxProjCols     = 5
	maxCandidates   = 512
)

// GenerateCandidates enumerates well-typed lambda DCS queries grounded
// in the question's anchors, executes each in x (nil: the package
// default), and returns the deduplicated pool. This is the "floating"
// part of the parser: compositions are driven by the table and anchors,
// triggers only add features (the model learns to use them), so
// mis-triggered compositions exist in the pool — exactly the realistic
// error profile the paper's user study corrects.
//
// A sub-expression that several queries are built on is one node under
// all of them, so that what the features ask of it is worked out once.
func GenerateCandidates(q *Question, t *table.Table, x *plan.Exec) []*Candidate {
	numCols := numericColumns(t)
	recs, joins := recordsCandidates(q, t, numCols)
	projCols := projectionColumns(q, t)
	joinish := make([]bool, len(recs))
	for i, r := range recs {
		joinish[i] = isJoinish(r)
	}

	// Records-level queries are rarely final answers but keep the pool
	// honest (the model learns to dis-prefer them via type features).
	queries := slices.Clone(recs)

	// Values: projections of every records candidate, records-major.
	var valueQueries []dcs.Expr
	for _, r := range recs {
		for _, pc := range projCols {
			valueQueries = append(valueQueries, &dcs.ColumnValues{Column: t.Column(pc), Records: r})
		}
	}

	// Prev/Next around join-based records.
	for i, r := range recs {
		if joinish[i] {
			prev, next := &dcs.Prev{Records: r}, &dcs.Next{Records: r}
			for _, pc := range projCols {
				valueQueries = append(valueQueries,
					&dcs.ColumnValues{Column: t.Column(pc), Records: prev},
					&dcs.ColumnValues{Column: t.Column(pc), Records: next})
			}
		}
	}

	// Superlatives.
	for i, r := range recs {
		for _, nc := range numCols {
			highest := &dcs.ArgRecords{Max: true, Records: r, Column: t.Column(nc)}
			lowest := &dcs.ArgRecords{Max: false, Records: r, Column: t.Column(nc)}
			for _, pc := range projCols {
				if pc == nc {
					continue
				}
				valueQueries = append(valueQueries,
					&dcs.ColumnValues{Column: t.Column(pc), Records: highest},
					&dcs.ColumnValues{Column: t.Column(pc), Records: lowest})
			}
		}
		if joinish[i] {
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
		col := q.EntityAnchors[p.a].Col
		vals := &dcs.Union{L: joins[p.a].Arg, R: joins[p.b].Arg}
		valueQueries = append(valueQueries, &dcs.MostFrequent{Vals: vals, Column: t.Column(col)})
		for _, nc := range numCols {
			if nc == col {
				continue
			}
			valueQueries = append(valueQueries,
				&dcs.CompareValues{Max: true, Vals: vals, KeyCol: t.Column(nc), ValCol: t.Column(col)},
				&dcs.CompareValues{Max: false, Vals: vals, KeyCol: t.Column(nc), ValCol: t.Column(col)})
		}
	}
	queries = append(queries, valueQueries...)

	// Scalars: counts, aggregates of the numeric projections of
	// join-based records, differences.
	for _, r := range recs {
		queries = append(queries, &dcs.Aggregate{Fn: dcs.Count, Arg: r})
	}
	// The header decides whether a projection is numeric, as it decides
	// which column the query reads: two columns under one header both
	// name the same one.
	numericProj := make([]bool, len(projCols))
	for j, pc := range projCols {
		c, ok := t.ColumnIndex(t.Column(pc))
		numericProj[j] = ok && slices.Contains(numCols, c)
	}
	for i := range recs {
		for j := range projCols {
			if joinish[i] && numericProj[j] {
				projection := valueQueries[i*len(projCols)+j]
				for _, fn := range []dcs.AggrFn{dcs.Max, dcs.Min, dcs.Sum, dcs.Avg, dcs.Count} {
					queries = append(queries, &dcs.Aggregate{Fn: fn, Arg: projection})
				}
			}
		}
	}
	for _, p := range pairs {
		col := q.EntityAnchors[p.a].Col
		// Occurrence difference.
		queries = append(queries, &dcs.Sub{
			L: &dcs.Aggregate{Fn: dcs.Count, Arg: joins[p.a]},
			R: &dcs.Aggregate{Fn: dcs.Count, Arg: joins[p.b]},
		})
		// Value difference on each numeric column.
		for _, nc := range numCols {
			if nc == col {
				continue
			}
			queries = append(queries, &dcs.Sub{
				L: &dcs.ColumnValues{Column: t.Column(nc), Records: joins[p.a]},
				R: &dcs.ColumnValues{Column: t.Column(nc), Records: joins[p.b]},
			})
		}
	}

	// Dedupe, execute, featurize.
	f := newFeaturizer(q, len(queries))
	seen := make(map[string]struct{}, len(queries))
	pool := make([]Candidate, 0, min(len(queries), maxCandidates))
	out := make([]*Candidate, 0, cap(pool))
	for _, e := range queries {
		n := f.describe(e)
		if _, dup := seen[n.text]; dup {
			continue
		}
		seen[n.text] = struct{}{}
		// Answer-only fast path: candidate results feed ranking and
		// gold-answer comparison, never highlights, so witness-cell
		// capture would be pure overhead on this hot loop.
		res, err := dcs.ExecuteIn(x, e, t, plan.Noop{})
		if err != nil {
			continue // ill-typed, or a dynamic type error: not a viable candidate
		}
		pool = append(pool, Candidate{Query: e, Result: res, Features: f.features(n, res), text: n.text})
		out = append(out, &pool[len(pool)-1])
		if len(out) >= maxCandidates {
			break
		}
	}
	return out
}

// anchorPair is a pair of entity anchors, by their place in
// Question.EntityAnchors.
type anchorPair struct{ a, b int }

// sameColumnAnchorPairs returns ordered pairs of distinct entity anchors
// grounded in the same column (the shape behind "between X and Y"
// questions).
func sameColumnAnchorPairs(q *Question) []anchorPair {
	var out []anchorPair
	for i, a := range q.EntityAnchors {
		for j, b := range q.EntityAnchors {
			if i != j && a.Col == b.Col && !a.Val.Equal(b.Val) {
				out = append(out, anchorPair{a: i, b: j})
			}
		}
	}
	return out
}

// recordsCandidates builds the record-set building blocks: joins on
// anchored entities, comparisons on question numbers, and their
// intersections/unions. It also returns the joins alone, one per entity
// anchor in the question's order.
func recordsCandidates(q *Question, t *table.Table, numCols []int) (recs []dcs.Expr, joins []*dcs.Join) {
	recs = append(recs, &dcs.AllRecords{})

	for _, a := range q.EntityAnchors {
		j := &dcs.Join{Column: t.Column(a.Col), Arg: &dcs.ValueLit{V: a.Val}}
		joins = append(joins, j)
		recs = append(recs, j)
	}

	// Comparisons: question numbers against numeric columns.
	for _, n := range q.Numbers {
		for _, nc := range numCols {
			for _, op := range []dcs.CmpOp{dcs.Gt, dcs.Ge, dcs.Lt, dcs.Le} {
				recs = append(recs, &dcs.Compare{Column: t.Column(nc), Op: op, V: table.NumberValue(n)})
			}
		}
	}

	// Intersections of joins on different columns; unions on the same.
	for i, ji := range joins {
		for _, jj := range joins[i+1:] {
			if ji.Column == jj.Column {
				recs = append(recs, &dcs.Union{L: ji, R: jj})
			} else {
				recs = append(recs, &dcs.Intersect{L: ji, R: jj})
			}
		}
	}

	if len(recs) > maxRecordsCands {
		recs = recs[:maxRecordsCands]
	}
	return recs, joins
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
		for r := range t.NumRows() {
			if t.CellKind(r, c) != table.String {
				numeric++
			}
		}
		if numeric*2 >= t.NumRows() && t.NumRows() > 0 {
			out = append(out, c)
		}
	}
	return out
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
// text for determinism.
func sortCandidates(cands []*Candidate) {
	slices.SortStableFunc(cands, func(a, b *Candidate) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.text, b.text)
	})
}

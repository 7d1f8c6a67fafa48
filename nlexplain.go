// Package nlexplain explains formal queries over web tables to
// non-expert users, reproducing "Explaining Queries over Web Tables to
// Non-Experts" (Berant, Deutch, Globerson, Milo, Wolfson — ICDE 2019).
//
// The library provides, end to end:
//
//   - a lambda DCS query language over single web tables (parser, type
//     checker, executor), with a verified translation to SQL;
//   - the paper's multilevel cell-based provenance model
//     Prov(Q,T) = (PO, PE, PC) and provenance-based table highlights
//     (Algorithm 1), with record sampling for large tables;
//   - query-to-utterance explanation via an NL-templated grammar
//     (Table 3), including derivation trees (Figure 3);
//   - a trainable log-linear semantic parser mapping NL questions to
//     candidate queries (Eq. 4-8), supporting answer supervision and
//     annotation (human-in-the-loop) supervision;
//   - renderers (text, ANSI, HTML) for highlighted tables.
//
// Quick start:
//
//	t, _ := nlexplain.NewTable("olympics",
//	    []string{"Year", "Country", "City"},
//	    [][]string{{"1896", "Greece", "Athens"}, {"2004", "Greece", "Athens"}})
//	q, _ := nlexplain.ParseQuery("max(R[Year].Country.Greece)")
//	ex, _ := nlexplain.Explain(q, t)
//	fmt.Println(ex.Utterance) // "maximum of values in column Year in rows where ..."
//	fmt.Println(ex.Text())    // the highlighted table
//
// # Serving explanations at scale
//
// For serving many concurrent requests, the package re-exports the
// explanation pipeline engine (package internal/engine): three result
// LRU caches — explanations, answers, candidate pools — keyed on
// (table version, request text), an in-flight deduplicator, worker
// slots bounding every uncached computation and a batch's fan-out,
// per-query context deadlines, and scrape-ready counters. Table state lives in a sharded versioned store
// (internal/store): every query pins an immutable snapshot, live
// mutations (RegisterTable over an existing name, AppendRows,
// DropTable) install a new snapshot under a monotonic generation and
// synchronously purge the displaced version's cached results, and a
// byte budget (EngineOptions.StoreByteBudget) over the footprint read
// off the resident tables evicts cold tables' derived indexes (never
// base data) under pressure:
//
//	eng := nlexplain.NewEngine(nlexplain.EngineOptions{Workers: 8})
//	eng.RegisterTable(t)
//	out, err := eng.Explain(ctx, "olympics", "max(R[Year].Country.Greece)")
//	info, err := eng.AppendRows("olympics", [][]string{{"2016", "Rio", "Brazil", "207"}})
//	results := eng.ExplainBatch(ctx, []nlexplain.ExplainRequest{...})
//	eng.Metrics().WritePrometheus(w) // hits, misses, executions, latency, store bytes
//
// cmd/wtq-server wraps the engine in an HTTP/JSON service with
// endpoints POST /v1/tables, PATCH/DELETE /v1/tables/{name},
// /v1/explain, /v1/explain/batch,
// /v1/answer, /v1/parse and GET /v1/healthz, /metrics; see
// examples/server for a curl transcript. Speed is measured by
// benchmark/ (bash benchmark/run.sh, declared in BENCHMARK.json).
// Build and run everything through the Makefile:
// `make build test vet fmt cover bench serve`, mirrored
// one-to-one by the GitHub Actions workflow in
// .github/workflows/ci.yml.
package nlexplain

import (
	"fmt"
	"io"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/export"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/semparse"
	"nlexplain/internal/sqlgen"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

// Core data-model types (see the table package for full documentation).
type (
	// Table is a single web table with ordered, indexed records.
	Table = table.Table
	// Value is a typed cell value (string, number or date).
	Value = table.Value
	// CellRef identifies one cell by (row, column). A provenance level
	// holds its cells by column (table.Level), a column and the rows its
	// cells lie on, and lists them as CellRefs only when walked or
	// encoded.
	CellRef = table.CellRef
)

// Query-language types.
type (
	// Query is a lambda DCS expression.
	Query = dcs.Expr
	// Result is a query denotation: records, values or a scalar.
	Result = dcs.Result
)

// Provenance and explanation types.
type (
	// Provenance is the multilevel cell-based provenance (PO, PE, PC).
	Provenance = provenance.Prov
	// Highlights assigns each cell its marking per Algorithm 1.
	Highlights = provenance.Highlights
	// Marking is a highlight class: None, Lit, Framed or Colored.
	Marking = provenance.Marking
	// DerivationNode is a node of the Figure 3 derivation tree.
	DerivationNode = utterance.Node
)

// Highlight marking levels.
const (
	MarkNone    = provenance.None
	MarkLit     = provenance.Lit
	MarkFramed  = provenance.Framed
	MarkColored = provenance.Colored
)

// Semantic-parser types.
type (
	// Parser is the trainable log-linear semantic parser.
	Parser = semparse.Parser
	// Candidate is one generated query with features and result.
	Candidate = semparse.Candidate
	// Example is a training/evaluation instance.
	Example = semparse.Example
	// TrainOptions configures AdaGrad + L1 training.
	TrainOptions = semparse.TrainOptions
	// Metrics aggregates correctness / answer accuracy / MRR / bound.
	Metrics = semparse.Metrics
)

// NewTable builds a table from a header and raw rows; cell text is
// typed automatically (numbers, dates, strings).
func NewTable(name string, columns []string, rows [][]string) (*Table, error) {
	return table.New(name, columns, rows)
}

// TableFromCSV reads a table whose first CSV record is the header.
func TableFromCSV(name string, r io.Reader) (*Table, error) {
	return table.FromCSV(name, r)
}

// ParseQuery reads a lambda DCS expression in the paper's surface
// syntax, e.g. "max(R[Year].Country.Greece)".
func ParseQuery(src string) (Query, error) { return dcs.Parse(src) }

// ExecuteQuery checks and evaluates a query against a table. The
// query compiles into the relational plan core (internal/plan)
// and runs with witness-cell capture on, so the Result carries the PO
// provenance cells.
func ExecuteQuery(q Query, t *Table) (*Result, error) { return dcs.Execute(q, t) }

// ExecuteQueryAnswer is ExecuteQuery on the answer-only fast path: no
// witness cells are computed, which is measurably faster when only the
// denotation matters (batch answering, gold-answer comparison).
func ExecuteQueryAnswer(q Query, t *Table) (*Result, error) { return dcs.ExecuteAnswer(q, t) }

// ToSQL translates a query to SQL over the table "T" (the Table 10
// mapping).
func ToSQL(q Query) (string, error) { return sqlgen.TranslateSQL(q) }

// Utter renders the NL utterance explaining a query (Section 5.1).
func Utter(q Query) string { return utterance.Utter(q) }

// Derive builds the derivation tree carrying both the formal query and
// its utterance (Figure 3).
func Derive(q Query) *DerivationNode { return utterance.Derive(q) }

// HighlightQuery computes provenance-based highlights for a query on a
// table (Algorithm 1).
func HighlightQuery(q Query, t *Table) (*Highlights, error) {
	return provenance.Highlight(q, t)
}

// SampleRows picks representative records for rendering a large table's
// highlights (Section 5.3).
func SampleRows(q Query, t *Table, h *Highlights) []int {
	return provenance.Sample(q, t, h)
}

// NewParser returns the baseline semantic parser with heuristic
// initial weights; train it with (*Parser).Train.
func NewParser() *Parser { return semparse.NewParser() }

// Engine types, re-exported from the internal pipeline engine so
// services embed the same machinery wtq-server runs on.
type (
	// Engine is the concurrent explanation pipeline: versioned table
	// store, three result LRU caches, bounded worker slots and counters.
	Engine = engine.Engine
	// EngineOptions configures NewEngine; the zero value picks
	// defaults (GOMAXPROCS workers, 1024-entry caches, 10s timeout,
	// unlimited store byte budget).
	EngineOptions = engine.Options
	// EngineExplanation is the explanation document /v1/explain
	// serves: what ExplainJSON encodes, plus the table version the
	// engine explained. Its grid is a view of the table, whose cells
	// the encoders write; Table.WithCells returns them held.
	EngineExplanation = engine.Explanation
	// EngineAnswer is the engine's answer-only fast-path output.
	EngineAnswer = engine.Answer
	// ExplainRequest is one query of an ExplainBatch call.
	ExplainRequest = engine.Request
	// ExplainBatchResult is one in-order outcome of ExplainBatch.
	ExplainBatchResult = engine.BatchResult
	// TableInfo describes a table registered with an Engine.
	TableInfo = engine.TableInfo
	// TableDetail is the full table resource: TableInfo plus schema and
	// resident bytes, as served by GET /v1/tables/{name}.
	TableDetail = engine.TableDetail
	// RankedCandidate is one semantic-parse candidate on the wire.
	RankedCandidate = engine.RankedCandidate
	// EngineHealth reports the engine's serving state: "ok", or
	// "degraded" with a reason while the durable store is read-only
	// and recovering.
	EngineHealth = engine.Health
)

// NewEngine builds a concurrent explanation engine (zero Options =
// defaults). It panics if opts request a durable data directory that
// cannot be opened or recovered; services that set EngineOptions.DataDir
// should prefer OpenEngine and handle the error.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// OpenEngine builds a concurrent explanation engine, returning an error
// instead of panicking when the durable data directory (if
// EngineOptions.DataDir is set) cannot be opened, recovered from its
// checkpoint + WAL tail, or fails its checksums. Close the engine to
// flush and sync the log before exit.
func OpenEngine(opts EngineOptions) (*Engine, error) { return engine.Open(opts) }

// ErrUnknownTable reports an engine request against an unregistered
// table name; match it with errors.Is.
var ErrUnknownTable = engine.ErrUnknownTable

// ErrInternal marks a server-side engine pipeline failure (a contained
// panic); match it with errors.Is.
var ErrInternal = engine.ErrInternal

// ErrOverloaded reports that the engine shed a request because
// MaxPending computations already run or wait; match it with errors.Is.
var ErrOverloaded = engine.ErrOverloaded

// ErrUnavailable reports a mutation rejected because the durable store
// cannot persist it right now (durability fault or degraded read-only
// mode). Reads keep serving; back off and retry the mutation. Match it
// with errors.Is.
var ErrUnavailable = engine.ErrUnavailable

// Explanation is the complete explanation of one query on one table:
// what the deployment interface shows a non-expert next to each
// candidate (Section 6.3). Explain fills it from the one document
// build the engine serves on /v1/explain (ExplainJSON is that
// document); it adds the highlights the Text, ANSI and HTML renderings
// draw.
type Explanation struct {
	Query      Query
	Table      *Table
	Utterance  string
	SQL        string // empty if the query is outside the SQL fragment
	Result     string // the query's denotation, as the document spells it
	Highlights *Highlights
	// SampleRows are the Section 5.3 representative records the
	// renderings draw when the table is over the sampling threshold,
	// and nil when they draw every record.
	SampleRows []int
}

// Explain builds the full explanation for a query over a table.
func Explain(q Query, t *Table) (*Explanation, error) {
	doc, h, err := export.Build(q, t, 0)
	if err != nil {
		return nil, err
	}
	e := &Explanation{
		Query:      q,
		Table:      t,
		Utterance:  doc.Utterance,
		SQL:        doc.SQL,
		Result:     doc.Result,
		Highlights: h,
	}
	if doc.Table.Sampled {
		e.SampleRows = doc.Table.Rows
	}
	return e, nil
}

// Text renders the highlighted table with plain-text markers.
func (e *Explanation) Text() string {
	return render.Text(e.Table, e.Highlights, e.SampleRows)
}

// ANSI renders the highlighted table with terminal colors.
func (e *Explanation) ANSI() string {
	return render.ANSI(e.Table, e.Highlights, e.SampleRows)
}

// HTML renders the highlighted table as an HTML fragment; pair it with
// HighlightCSS.
func (e *Explanation) HTML() string {
	return render.HTML(e.Table, e.Highlights, e.SampleRows)
}

// HighlightCSS is the stylesheet for Explanation.HTML output.
func HighlightCSS() string { return render.CSS() }

// HighlightLegend describes the text markers used by Explanation.Text.
func HighlightLegend() string { return render.Legend() }

// ExplainJSON serializes the full explanation of a query over a table
// as indented JSON — the document a web front-end (the paper's
// deployment interface of Section 6.3) consumes: table name, query,
// utterance, SQL, result, the highlighted grid (sampled per Section 5.3
// on large tables) and the PO/PE/PC levels. It is the EngineExplanation
// /v1/explain returns, minus the version and the cache flag.
func ExplainJSON(q Query, t *Table) ([]byte, error) {
	return export.Marshal(q, t)
}

// CandidateExplanation pairs a ranked candidate with its explanation —
// one row of the deployment interface.
type CandidateExplanation struct {
	Rank        int
	Candidate   *Candidate
	Explanation *Explanation
}

// ExplainQuestion runs the deployment pipeline of Figure 2: parse the
// question into ranked candidate queries and explain each of the top-k
// through Explain. It ranks with the caller's Parser, which a feedback
// loop may train between calls (examples/feedback), so it is not the
// engine's ParseQuestion, which ranks with a parser of its own.
func ExplainQuestion(p *Parser, question string, t *Table) ([]CandidateExplanation, error) {
	cands := p.Parse(question, t)
	if len(cands) == 0 {
		return nil, fmt.Errorf("no candidate queries generated for %q", question)
	}
	out := make([]CandidateExplanation, 0, len(cands))
	for i, c := range cands {
		ex, err := Explain(c.Query, t)
		if err != nil {
			return nil, fmt.Errorf("explaining candidate %d (%s): %w", i+1, c.Query, err)
		}
		out = append(out, CandidateExplanation{Rank: i + 1, Candidate: c, Explanation: ex})
	}
	return out, nil
}

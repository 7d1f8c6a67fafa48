package plan

import "nlexplain/internal/table"

// Tracer is the provenance hook the executor calls at every operator
// boundary. It factors witness-cell capture out of the query
// executors: with an inactive tracer the executor skips all cell
// bookkeeping (the answer-only fast path used for batch and parse
// traffic); with an active tracer each operator computes its PO
// witness cells and reports them through Operator, so a single
// execution yields both the output provenance (the root's cells) and
// the execution provenance PE (the union over all boundaries).
//
// The interface lives in this package only to break the import cycle
// plan → provenance → dcs → plan; internal/provenance provides the full
// PO-cell tracer used for explanations (provenance.CellTracer).
type Tracer interface {
	// Active reports whether operators must compute witness cells.
	// When false, Operator is never called.
	Active() bool
	// Operator is called after an operator finishes, with its name and
	// its PO witness cells as spans: ascending by column, each column
	// once, each with its rows ascending and distinct. The spans and
	// their rows live in the execution's pooled arena or in the table,
	// and are valid only for the duration of the call: implementations
	// that keep cells must copy them (the provenance CellTracer ORs
	// each column's rows into one bitmap).
	Operator(op string, cells []table.Span)
}

// Noop is the inactive tracer: no witness cells are computed anywhere
// in the plan, making execution a pure answer computation.
type Noop struct{}

// Active reports false: skip all cell bookkeeping.
func (Noop) Active() bool { return false }

// Operator is never called on an inactive tracer.
func (Noop) Operator(string, []table.Span) {}

// Capture enables witness-cell computation without accumulating
// anything: the caller reads the root's cells, a table.Level, off the
// execution result. dcs.Execute runs under it, and so do the Section
// 5.3 sample's runs of a difference query's two operands.
type Capture struct{}

// Active reports true: operators compute witness cells.
func (Capture) Active() bool { return true }

// Operator ignores boundary reports; only the root cells matter.
func (Capture) Operator(string, []table.Span) {}

// Command wtq-server serves query explanations over HTTP/JSON — the
// deployment interface of Section 6.3 as a service, backed by the
// concurrent explanation engine (table registry, result caches,
// bounded worker slots).
//
// Endpoints:
//
//	POST   /v1/tables        register a table {name, columns, rows} or {name, csv}, not both
//	GET    /v1/tables        list registered tables (full per-table objects)
//	GET    /v1/tables/{name} one table: schema, rows, version, generation, bytes
//	PATCH  /v1/tables/{name} append rows {rows} to a registered table
//	DELETE /v1/tables/{name} drop a table
//	POST   /v1/explain       {table, query} -> utterance + highlights + provenance
//	POST   /v1/explain/batch {queries: [{table, query}...], timeout_ms} -> in-order results
//	POST   /v1/answer        {table, query} -> denotation only (answer-only fast path)
//	POST   /v1/parse         {table, question, top_k} -> ranked candidate queries
//	GET    /v1/healthz       liveness + table count; 503 {"status":"degraded"} while read-only
//	GET    /metrics          Prometheus text exposition of the full metric registry
//	GET    /debug/pprof/*    net/http/pprof profiles (only with -pprof)
//
// Every non-2xx response carries the unified error envelope
//
//	{"error": {"code": "<machine_code>", "message": "..."}}
//
// with stable codes: bad_request, query_too_deep, query_too_long,
// batch_too_large, unknown_table, too_large, deadline_exceeded,
// canceled, overloaded, unavailable, internal. A query is at most
// dcs.MaxQueryBytes long and nests at most dcs.MaxDepth levels; a
// batch holds at most maxBatchQueries queries. (The deprecated flat
// "error_string" mirror announced one release ago has been dropped;
// read error.code/error.message.)
//
// Observability: every endpoint is instrumented with
// server.http.<endpoint>.{requests,errors,latency.seconds} series on
// the engine's metric registry, which GET /metrics serves alongside
// the engine.* pipeline counters/histograms and store.* series: the
// registry is the one way counters leave the process.
//
// Table mutations (register over an existing name, PATCH, DELETE) bump
// the store generation and synchronously invalidate every cached
// result of the displaced version; in-flight queries keep the snapshot
// they pinned. Table payload endpoints are capped by -max-table-bytes
// (default 8 MiB) and reply 413 with code "too_large" beyond it.
//
// Durability: with -data-dir the store writes every catalog mutation
// to a CRC-checked write-ahead log, fsynced before the mutation is
// acknowledged (mutations that overlap share an fsync), and
// periodically checkpoints tables into immutable columnar segment
// files (-checkpoint-interval / -checkpoint-bytes). On restart the
// server loads the last checkpoint, replays the WAL tail, and resumes
// at the recovered generation. After kill -9 every acknowledged
// mutation is on disk; one that was in flight and never acknowledged
// may or may not be. SIGINT/SIGTERM shut down gracefully, flushing and
// fsyncing the log. Without -data-dir the store is purely in-memory,
// as before.
//
// Fault tolerance: a durability fault (failed WAL write or fsync) does
// not take the node down. The store seals the damaged log and enters
// degraded read-only mode — reads keep serving from the in-memory
// snapshots, mutations fail fast with 503 code "unavailable" and a
// Retry-After header, /v1/healthz flips to 503 {"status":"degraded",
// "reason":...} so load balancers drain the node, and the store's
// checkpoint loop retries with capped exponential backoff until a
// fresh log verifies durable, at which point everything returns to
// normal.
// Watch store.degraded, store.faults.durability and
// store.recovery.{attempts,successes} on GET /metrics.
//
// Run `wtq-server -demo` to start with the paper's Figure 1 olympics
// table pre-registered; see examples/server for a curl transcript.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode/utf8"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/export"
	"nlexplain/internal/metric"
	"nlexplain/internal/table"
)

// defaultMaxTableBytes caps table payload bodies (POST/PATCH
// /v1/tables) unless -max-table-bytes overrides it.
const defaultMaxTableBytes = 8 << 20

// server wires the engine to HTTP handlers.
type server struct {
	engine *engine.Engine
	// maxTableBytes bounds table payload request bodies; beyond it the
	// server replies 413 with a JSON error body.
	maxTableBytes int64
	// httpReg is the "server.http" sub-registry of the engine's metric
	// root; route() hangs per-endpoint series off it.
	httpReg *metric.Registry
	// requests counts requests across all endpoints.
	requests *metric.Counter
}

// muxConfig configures newMux beyond the engine itself.
type muxConfig struct {
	maxTableBytes int64
	// pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: profiles expose internals and cost CPU, so production
	// operators opt in with the -pprof flag.
	pprof bool
}

func newMux(e *engine.Engine, cfg muxConfig) *http.ServeMux {
	if cfg.maxTableBytes <= 0 {
		cfg.maxTableBytes = defaultMaxTableBytes
	}
	reg := e.Metrics()
	httpReg := reg.Sub("server.http")
	s := &server{
		engine:        e,
		maxTableBytes: cfg.maxTableBytes,
		httpReg:       httpReg,
		requests:      httpReg.Counter("requests", "HTTP requests across all endpoints"),
	}
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/tables", "tables_register", s.handleRegisterTable)
	s.route(mux, "GET /v1/tables", "tables_list", s.handleListTables)
	s.route(mux, "GET /v1/tables/{name}", "tables_get", s.handleGetTable)
	s.route(mux, "PATCH /v1/tables/{name}", "tables_append", s.handleAppendRows)
	s.route(mux, "DELETE /v1/tables/{name}", "tables_drop", s.handleDropTable)
	s.route(mux, "POST /v1/explain", "explain", s.handleExplain)
	s.route(mux, "POST /v1/explain/batch", "explain_batch", s.handleExplainBatch)
	s.route(mux, "POST /v1/answer", "answer", s.handleAnswer)
	s.route(mux, "POST /v1/parse", "parse", s.handleParse)
	s.route(mux, "GET /v1/healthz", "healthz", s.handleHealthz)
	s.route(mux, "GET /metrics", "metrics", s.handleMetrics)
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response status for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// route mounts a handler with per-endpoint observability: a request
// counter, an error counter (non-2xx responses) and a latency
// histogram under server.http.<name>.*, plus the service-wide count.
func (s *server) route(mux *http.ServeMux, pattern, name string, h http.HandlerFunc) {
	r := s.httpReg.Sub(name)
	reqs := r.Counter("requests", "requests to "+pattern)
	errs := r.Counter("errors", "non-2xx responses from "+pattern)
	lat := r.LatencyHistogram("latency.seconds", "response latency of "+pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		s.requests.Inc()
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, req)
		if sw.status >= 300 {
			errs.Inc()
		}
		lat.RecordDuration(time.Since(start))
	})
}

// body is a response on its way out: the pending bytes, in a slice
// the pool recycles across requests, and the writer they go to. Every
// response is encoded once, into buf, and buf itself is written, so
// steady-state responses allocate neither an encoder nor a fresh
// backing array. The explanation responses (/v1/explain and
// /v1/explain/batch) append their bytes to buf by hand; every other
// response goes through enc, in writeJSON. A batch is written as its
// items are appended (item), so buf holds at most one item past
// flushBytes, never the whole body.
type body struct {
	buf []byte
	// enc writes into buf through Write, indented as every response is.
	enc *json.Encoder
	w   http.ResponseWriter
	// status is sent, with the Content-Type, before the first byte.
	status int
	// err is the first failed write; nothing is written after it.
	err error
}

// bodyMaxRetained caps the capacity the pool keeps: a rare huge
// response (a full table dump) should not pin megabytes forever.
const bodyMaxRetained = 1 << 20

// flushBytes is the pending size at which a batch response writes out
// what it holds; item checks it after each item is appended.
const flushBytes = 16 << 10

var bodyPool = sync.Pool{New: func() any {
	b := new(body)
	b.enc = json.NewEncoder(b)
	b.enc.SetIndent("", "  ")
	return b
}}

// newBody takes a body from the pool for a response of status to w.
func newBody(w http.ResponseWriter, status int) *body {
	b := bodyPool.Get().(*body)
	b.buf, b.w, b.status, b.err = b.buf[:0], w, status, nil
	return b
}

// Write appends p to the pending bytes: it is enc's destination, and
// never fails.
func (b *body) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// item writes the pending bytes out once they reach flushBytes. A
// batch calls it after each item it appends.
func (b *body) item() {
	if len(b.buf) >= flushBytes {
		b.flush()
	}
}

// flush writes the pending bytes, the header first if nothing has been
// written yet, and empties buf. A failed write is logged once, and
// every later one is skipped.
func (b *body) flush() {
	if b.err != nil {
		return
	}
	if b.status != 0 {
		b.w.Header().Set("Content-Type", "application/json")
		b.w.WriteHeader(b.status)
		b.status = 0
	}
	if _, err := b.w.Write(b.buf); err != nil {
		log.Printf("writing response: %v", err)
		b.err = err
	}
	b.buf = b.buf[:0]
}

// close writes what is pending and returns b to the pool, unless its
// slice outgrew bodyMaxRetained.
func (b *body) close() {
	b.flush()
	b.w = nil
	if cap(b.buf) <= bodyMaxRetained {
		bodyPool.Put(b)
	}
}

// writeJSON writes v as encoding/json's indented encoder spells it:
// every response but the two explanation ones, which their handlers
// append to a body by hand, in the same bytes, without reflection.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := newBody(w, status)
	if err := b.enc.Encode(v); err != nil {
		// Nothing was written yet, so the client still gets a clean
		// JSON error response instead of a torn body; b is left to the
		// collector. (errorBody always marshals, so this cannot recurse.)
		log.Printf("encoding response: %v", err)
		writeError(w, http.StatusInternalServerError, codeInternal, "internal server error")
		return
	}
	b.close()
}

// Stable machine-readable error codes of the unified error envelope.
// Codes are part of the API contract: clients branch on them, so they
// never change meaning or disappear.
const (
	codeBadRequest       = "bad_request"
	codeUnknownTable     = "unknown_table"
	codeTooLarge         = "too_large"
	codeDeadlineExceeded = "deadline_exceeded"
	codeCanceled         = "canceled"
	codeOverloaded       = "overloaded"
	codeInternal         = "internal"
	codeUnavailable      = "unavailable"
	codeQueryTooDeep     = "query_too_deep"
	codeQueryTooLong     = "query_too_long"
	codeBatchTooLarge    = "batch_too_large"
)

// errorInfo is the structured error of the unified envelope.
type errorInfo struct {
	// Code is a stable machine-readable class (see the code* constants).
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// errorBody is the response body of every non-2xx reply. (The
// deprecated "error_string" mirror of the pre-envelope flat shape was
// dropped after its announced one-release grace period.)
type errorBody struct {
	Error errorInfo `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: errorInfo{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// classify maps a pipeline error to its HTTP status and its stable
// envelope code: missing tables are 404, deadline hits are 504, client
// disconnects are 499 (the nginx convention; the client is gone and
// will not read it anyway), a query nested past dcs.MaxDepth is 400
// query_too_deep, one longer than dcs.MaxQueryBytes 400 query_too_long,
// everything unrecognised is the client's 400 (bad query, bad table
// payload).
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return 499, codeCanceled
	case errors.Is(err, engine.ErrUnknownTable):
		return http.StatusNotFound, codeUnknownTable
	case errors.Is(err, engine.ErrUnavailable):
		return http.StatusServiceUnavailable, codeUnavailable
	case errors.Is(err, engine.ErrInternal):
		return http.StatusInternalServerError, codeInternal
	case errors.Is(err, engine.ErrOverloaded):
		return http.StatusServiceUnavailable, codeOverloaded
	case errors.As(err, new(*dcs.DepthError)):
		return http.StatusBadRequest, codeQueryTooDeep
	case errors.As(err, new(*dcs.LengthError)):
		return http.StatusBadRequest, codeQueryTooLong
	default:
		return http.StatusBadRequest, codeBadRequest
	}
}

// maxErrMessage caps an error message on the wire: a message may quote
// the request's query, which can run to the body cap.
const maxErrMessage = 1 << 10

// errMessage is the client-facing text for a pipeline error, cut to
// maxErrMessage bytes and "…". Contained panics (ErrInternal) are
// logged server-side and replaced with a generic message so internal
// state never reaches the response body.
func errMessage(err error) string {
	if errors.Is(err, engine.ErrInternal) {
		log.Printf("internal pipeline error: %v", err)
		return "internal server error"
	}
	msg := err.Error()
	if n := maxErrMessage; len(msg) > n {
		for !utf8.RuneStart(msg[n]) {
			n--
		}
		msg = msg[:n] + "…"
	}
	return msg
}

// writePipelineError books a pipeline failure onto the wire with its
// mapped status, stable code and sanitized message. Every 503 — a
// degraded store's rejection or a shed request — carries a Retry-After
// so well-behaved clients and load balancers pace their retries.
func writePipelineError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, code, "%s", errMessage(err))
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeCapped(w, r, v, 16<<20)
}

// errTrailingData refuses a body that goes on after its JSON value.
var errTrailingData = errors.New("body continues after the JSON value")

// decodeCapped decodes a JSON body bounded by limit bytes. The body is
// one JSON value: whitespace may follow it, anything else is a 400. An
// over-limit body maps to 413 with code "too_large", not 400: the
// request may be well-formed, the server just refuses to buffer it.
func decodeCapped(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil || errors.As(err, new(*json.SyntaxError)) {
			err = errTrailingData
		}
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge, "request body exceeds %d bytes", maxErr.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
	return false
}

type registerTableRequest struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// CSV is an alternative payload: a full CSV document whose first
	// record is the header. A request carries it or Columns and Rows,
	// never both.
	CSV string `json:"csv,omitempty"`
}

func (s *server) handleRegisterTable(w http.ResponseWriter, r *http.Request) {
	var req registerTableRequest
	if !decodeCapped(w, r, &req, s.maxTableBytes) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing table name")
		return
	}
	if req.CSV != "" && (req.Columns != nil || req.Rows != nil) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "a table is csv or columns and rows, not both")
		return
	}
	var (
		info engine.TableInfo
		err  error
	)
	if req.CSV != "" {
		var t *table.Table
		t, err = table.FromCSV(req.Name, strings.NewReader(req.CSV))
		if err == nil {
			info, err = s.engine.RegisterTable(t)
		}
	} else {
		info, err = s.engine.RegisterRaw(req.Name, req.Columns, req.Rows)
	}
	if err != nil {
		// A degraded-mode rejection is a server fault (503), not a payload
		// problem; everything unclassified is the client's 400.
		writePipelineError(w, fmt.Errorf("registering table: %w", err))
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleListTables is GET /v1/tables: the same full per-table objects
// GET /v1/tables/{name} serves, sorted by name.
func (s *server) handleListTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.engine.TableDetails()})
}

// handleGetTable is GET /v1/tables/{name}: the table resource (schema,
// row count, content-hash version, generation, resident bytes), making
// the table endpoint symmetric across GET/PATCH/DELETE.
func (s *server) handleGetTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	detail, ok := s.engine.TableDetail(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownTable, "unknown table: %q", name)
		return
	}
	writeJSON(w, http.StatusOK, detail)
}

type appendRowsRequest struct {
	Rows [][]string `json:"rows"`
}

// handleAppendRows is PATCH /v1/tables/{name}: append rows to a live
// table. The store installs a copy-on-write successor snapshot and
// bumps the generation, and the engine purges the old version's cached
// results before it answers; queries in flight keep the snapshot they
// pinned.
func (s *server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req appendRowsRequest
	if !decodeCapped(w, r, &req, s.maxTableBytes) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no rows to append")
		return
	}
	info, err := s.engine.AppendRows(name, req.Rows)
	if err != nil {
		writePipelineError(w, fmt.Errorf("appending to table: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDropTable is DELETE /v1/tables/{name}: remove a table and
// synchronously invalidate its cached results.
func (s *server) handleDropTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok, err := s.engine.DropTable(name)
	if err != nil {
		writePipelineError(w, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownTable, "unknown table: %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": info})
}

type explainRequest struct {
	Table string `json:"table"`
	Query string `json:"query"`
}

// explainResponse is the /v1/explain body. Its tags are the spec;
// appendJSON writes it.
type explainResponse struct {
	*engine.Explanation
	Cached bool `json:"cached"`
}

// appendJSON appends r as writeJSON would encode it, the explanation's
// members and the cache flag in one object.
func (r explainResponse) appendJSON(b []byte) []byte {
	b = r.Explanation.AppendMembers(append(b, '{'), 1)
	b = strconv.AppendBool(append(b, ",\n  \"cached\": "...), r.Cached)
	return append(b, "\n}\n"...)
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decode(w, r, &req) {
		return
	}
	ex, cached, err := s.engine.ExplainCached(r.Context(), req.Table, req.Query)
	if err != nil {
		writePipelineError(w, err)
		return
	}
	out := newBody(w, http.StatusOK)
	out.buf = explainResponse{Explanation: ex, Cached: cached}.appendJSON(out.buf)
	out.close()
}

// maxBatchQueries caps the queries of one /v1/explain/batch request.
// The response is written item by item (batchResponse.writeTo), so its
// pending bytes are bounded by the largest item, not by this count;
// the results themselves are all held until the batch is answered. The
// largest batch a client here sends is 16 queries.
const maxBatchQueries = 256

type batchRequest struct {
	Queries []explainRequest `json:"queries"`
	// TimeoutMs bounds each query, up to the engine's cap; 0 or less uses
	// the engine default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

type batchItem struct {
	Explanation *engine.Explanation `json:"explanation,omitempty"`
	Cached      bool                `json:"cached"`
	Error       string              `json:"error,omitempty"`
	// ErrorCode is the stable machine code of Error (same vocabulary as
	// the top-level error envelope).
	ErrorCode string `json:"error_code,omitempty"`
}

// batchResponse is the /v1/explain/batch body. Its tags and
// batchItem's are the spec; writeTo writes it.
type batchResponse struct {
	Results []batchItem `json:"results"`
	Errors  int         `json:"errors"`
}

// writeTo writes r to out in the bytes writeJSON would make of it,
// handing out each item as it is appended (body.item), so the response
// goes out a few items at a time. After a failed write it stops.
func (r batchResponse) writeTo(out *body) {
	b := append(out.buf, "{\n  \"results\": "...)
	switch {
	case r.Results == nil:
		b = append(b, "null"...)
	case len(r.Results) == 0:
		b = append(b, "[]"...)
	default:
		for i, item := range r.Results {
			if i == 0 {
				b = append(b, "[\n    {"...)
			} else {
				b = append(b, ",\n    {"...)
			}
			if item.Explanation != nil {
				b = item.Explanation.AppendIndent(append(b, "\n      \"explanation\": "...), 3)
				b = append(b, ',')
			}
			b = strconv.AppendBool(append(b, "\n      \"cached\": "...), item.Cached)
			if item.Error != "" {
				b = export.AppendString(append(b, ",\n      \"error\": "...), item.Error)
			}
			if item.ErrorCode != "" {
				b = export.AppendString(append(b, ",\n      \"error_code\": "...), item.ErrorCode)
			}
			out.buf = append(b, "\n    }"...)
			out.item()
			if out.err != nil {
				return
			}
			b = out.buf
		}
		b = append(b, "\n  ]"...)
	}
	b = strconv.AppendInt(append(b, ",\n  \"errors\": "...), int64(r.Errors), 10)
	out.buf = append(b, "\n}\n"...)
}

func (s *server) handleExplainBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, codeBatchTooLarge, "batch of %d queries, more than %d", len(req.Queries), maxBatchQueries)
		return
	}
	// A budget past the engine's cap is the cap, which the engine
	// applies, and a negative one is the default; both are clamped
	// before the product, whose nanoseconds could otherwise wrap.
	timeout := min(max(time.Duration(req.TimeoutMs), 0), math.MaxInt64/time.Millisecond) * time.Millisecond
	reqs := make([]engine.Request, len(req.Queries))
	for i, q := range req.Queries {
		reqs[i] = engine.Request{Table: q.Table, Query: q.Query, Timeout: timeout}
	}
	results := s.engine.ExplainBatch(r.Context(), reqs)
	resp := batchResponse{Results: make([]batchItem, len(results))}
	for i, res := range results {
		item := batchItem{Explanation: res.Explanation, Cached: res.Cached}
		if res.Err != nil {
			item.Error = errMessage(res.Err)
			_, item.ErrorCode = classify(res.Err)
			resp.Errors++
		}
		resp.Results[i] = item
	}
	out := newBody(w, http.StatusOK)
	resp.writeTo(out)
	out.close()
}

type answerResponse struct {
	*engine.Answer
	Cached bool `json:"cached"`
}

// handleAnswer serves the answer-only fast path: the query's denotation
// without provenance, highlights or an utterance — the cheap endpoint
// load generators and gold-answer checkers should hit.
func (s *server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decode(w, r, &req) {
		return
	}
	ans, cached, err := s.engine.ExplainAnswer(r.Context(), req.Table, req.Query)
	if err != nil {
		writePipelineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, answerResponse{Answer: ans, Cached: cached})
}

type parseRequest struct {
	Table    string `json:"table"`
	Question string `json:"question"`
	TopK     int    `json:"top_k,omitempty"`
}

func (s *server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req parseRequest
	if !decode(w, r, &req) {
		return
	}
	cands, err := s.engine.ParseQuestion(r.Context(), req.Table, req.Question, req.TopK)
	if err != nil {
		writePipelineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"question": req.Question, "candidates": cands})
}

// handleHealthz reports serving health. While the durable store is in
// degraded read-only mode it answers 503 with the episode's reason and
// a Retry-After, so load balancers drain the node until the store's
// checkpoint loop lifts the degradation; reads still serve in between.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.engine.Health()
	if h.Status != "ok" {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": h.Status, "reason": h.Reason, "tables": len(s.engine.Tables()),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tables": len(s.engine.Tables())})
}

// handleMetrics serves the full hierarchical registry (engine.*,
// store.*, server.http.*) as Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.engine.Metrics().WritePrometheus(w); err != nil {
		log.Printf("writing /metrics: %v", err)
	}
}

// demoTable registers the paper's Figure 1 olympics running example.
func demoTable(e *engine.Engine) error {
	_, err := e.RegisterRaw("olympics",
		[]string{"Year", "City", "Country", "Nations"},
		[][]string{
			{"1896", "Athens", "Greece", "14"},
			{"1900", "Paris", "France", "24"},
			{"1904", "St. Louis", "USA", "12"},
			{"2004", "Athens", "Greece", "201"},
			{"2008", "Beijing", "China", "204"},
			{"2012", "London", "UK", "204"},
		})
	return err
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker slots: concurrent uncached computations, and a batch's fan-out (0 = GOMAXPROCS)")
	execWorkers := flag.Int("exec-workers", 0, "morsel-parallel executor workers per query (0 = GOMAXPROCS, 1 = serial)")
	cacheSize := flag.Int("cache", 0, "LRU cache entries per cache (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-query timeout (0 = default 10s)")
	storeBudget := flag.Int64("store-budget", 0, "table store byte budget; over it cold tables' derived indexes are evicted (0 = unlimited)")
	maxTableBytes := flag.Int64("max-table-bytes", defaultMaxTableBytes, "max table payload body size in bytes (413 beyond it)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpointed segments); empty = in-memory only")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "checkpoint cadence (0 = default 30s, negative = size-triggered only)")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "active WAL bytes that force an early checkpoint (0 = default 8 MiB, negative = off)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	demo := flag.Bool("demo", false, "pre-register the olympics demo table")
	flag.Parse()

	e, err := engine.Open(engine.Options{
		Workers:            *workers,
		CacheSize:          *cacheSize,
		QueryTimeout:       *timeout,
		StoreByteBudget:    *storeBudget,
		ExecWorkers:        *execWorkers,
		DataDir:            *dataDir,
		CheckpointInterval: *checkpointInterval,
		CheckpointBytes:    *checkpointBytes,
	})
	if err != nil {
		log.Fatalf("opening engine: %v", err)
	}
	if *demo {
		if err := demoTable(e); err != nil {
			log.Fatalf("registering demo table: %v", err)
		}
	}
	// Positional arguments are CSV files registered under their
	// basename (data/olympics.csv -> table "olympics").
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("opening %s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		t, err := table.FromCSV(name, f)
		f.Close()
		if err != nil {
			log.Fatalf("reading %s: %v", path, err)
		}
		info, err := e.RegisterTable(t)
		if err != nil {
			log.Fatalf("registering %s: %v", path, err)
		}
		log.Printf("registered table %q (%d rows, version %s)", info.Name, info.Rows, info.Version)
	}

	// Listen explicitly (rather than ListenAndServe) so "-addr :0" logs
	// the resolved port — the crash-recovery harness depends on it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           newMux(e, muxConfig{maxTableBytes: *maxTableBytes, pprof: *pprofFlag}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if *pprofFlag {
		log.Printf("pprof enabled on %s/debug/pprof/", ln.Addr())
	}
	if *dataDir != "" {
		log.Printf("durable store in %s", *dataDir)
	}
	log.Printf("wtq-server listening on %s (%d tables)", ln.Addr(), len(e.Tables()))

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-stop:
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
	}
	// Close flushes and fsyncs the WAL tail and stops the checkpointer,
	// so a clean shutdown restarts with an empty replay.
	if err := e.Close(); err != nil {
		log.Fatalf("closing engine: %v", err)
	}
}

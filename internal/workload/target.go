package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"nlexplain/internal/engine"
	"nlexplain/internal/table"
)

// Outcome classes, ordered by severity (aggregation keeps the worst).
const (
	ClassOK          = "ok"
	ClassCanceled    = "canceled"     // driver shutdown; never booked
	ClassClientError = "client_error" // bad query / unknown table / type error
	ClassTimeout     = "timeout"      // deadline exceeded
	ClassOverloaded  = "overloaded"   // shed: MaxPending computations pending
	ClassInternal    = "internal"     // contained panic / 5xx
	ClassTransport   = "transport"    // HTTP connection failure
)

// classRank orders classes for worst-of aggregation in batches.
var classRank = map[string]int{
	ClassOK: 0, ClassCanceled: 1, ClassClientError: 2, ClassTimeout: 3, ClassOverloaded: 4, ClassInternal: 5, ClassTransport: 6,
}

func worseClass(a, b string) string {
	if classRank[b] > classRank[a] {
		return b
	}
	return a
}

// Outcome is the result of driving one Op at a target.
type Outcome struct {
	Class  string
	Cached bool
	Err    error
}

// Target is anything the driver can aim a workload at.
type Target interface {
	// RegisterTables installs the corpus before the run.
	RegisterTables(ts []*table.Table) error
	// Do executes one op, honoring ctx.
	Do(ctx context.Context, op Op) Outcome
	// Close releases target resources.
	Close() error
}

// classifyErr maps an engine error to an outcome class.
func classifyErr(err error) string {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, engine.ErrOverloaded):
		return ClassOverloaded
	case errors.Is(err, engine.ErrUnavailable):
		// Degraded read-only mode: retryable server pressure, the same
		// contract HTTP targets see as a 503.
		return ClassOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	case errors.Is(err, engine.ErrInternal):
		return ClassInternal
	default:
		return ClassClientError
	}
}

// opCtx applies an op's own timeout, when set, on top of the driver's.
func opCtx(ctx context.Context, op Op) (context.Context, context.CancelFunc) {
	if op.TimeoutMs > 0 {
		return context.WithTimeout(ctx, time.Duration(op.TimeoutMs)*time.Millisecond)
	}
	return ctx, func() {}
}

// InProc drives an in-process engine.Engine: no network, and errors
// arrive typed rather than as status codes.
type InProc struct {
	Engine *engine.Engine
	// churnSeq suffixes churn-op table names so concurrent executions
	// of one op never collide on a name.
	churnSeq atomic.Uint64
}

// NewInProc wraps an engine: engine.New's, or a durable one from
// engine.Open, where construction can fail and the caller owns error
// handling.
func NewInProc(e *engine.Engine) *InProc {
	return &InProc{Engine: e}
}

// RegisterTables implements Target.
func (p *InProc) RegisterTables(ts []*table.Table) error {
	for _, t := range ts {
		if _, err := p.Engine.RegisterTable(t); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Target: it closes the engine, which on a durable
// store flushes and fsyncs the WAL tail (a no-op in-memory).
func (p *InProc) Close() error { return p.Engine.Close() }

// Do implements Target.
func (p *InProc) Do(ctx context.Context, op Op) Outcome {
	ctx, cancel := opCtx(ctx, op)
	defer cancel()
	switch op.Kind {
	case OpExplain:
		_, cached, err := p.Engine.ExplainCached(ctx, op.Table, op.Query)
		return Outcome{Class: classifyErr(err), Cached: cached, Err: err}
	case OpAnswer:
		_, cached, err := p.Engine.ExplainAnswer(ctx, op.Table, op.Query)
		return Outcome{Class: classifyErr(err), Cached: cached, Err: err}
	case OpParse:
		_, err := p.Engine.ParseQuestion(ctx, op.Table, op.Question, 0)
		return Outcome{Class: classifyErr(err), Err: err}
	case OpBatch:
		reqs := make([]engine.Request, len(op.Batch))
		for i, e := range op.Batch {
			reqs[i] = engine.Request{Table: e.Table, Query: e.Query, Timeout: time.Duration(op.TimeoutMs) * time.Millisecond}
		}
		out := Outcome{Class: ClassOK}
		okCount, cachedOK := 0, 0
		for _, res := range p.Engine.ExplainBatch(ctx, reqs) {
			out.Class = worseClass(out.Class, classifyErr(res.Err))
			if res.Err == nil {
				okCount++
				if res.Cached {
					cachedOK++
				}
			} else if out.Err == nil {
				out.Err = res.Err
			}
		}
		// A batch counts as cached only when it actually served results
		// and every one came from cache; an all-failure batch must not.
		out.Cached = okCount > 0 && cachedOK == okCount
		return out
	case OpChurn:
		return p.doChurn(ctx, op)
	default:
		return Outcome{Class: ClassClientError, Err: fmt.Errorf("unknown op kind %q", op.Kind)}
	}
}

// doChurn runs one full table lifecycle in-process: register, explain,
// append, answer, drop. Beyond the per-step error classification it
// verifies snapshot isolation on the wire contract: the explanation
// must carry the registered snapshot's version and the post-append
// answer the appended snapshot's version — a torn or stale read
// classifies as internal so the tests reading the tally catch it.
func (p *InProc) doChurn(ctx context.Context, op Op) Outcome {
	name := fmt.Sprintf("%s_%d", op.Table, p.churnSeq.Add(1))
	info, err := p.Engine.RegisterRaw(name, op.Columns, op.Rows)
	if err != nil {
		return Outcome{Class: ClassClientError, Err: err}
	}
	defer p.Engine.DropTable(name)
	ex, _, err := p.Engine.ExplainCached(ctx, name, op.Query)
	if err != nil {
		return Outcome{Class: classifyErr(err), Err: err}
	}
	if ex.Version != info.Version {
		err := fmt.Errorf("%w: churn explain served version %s, registered %s", engine.ErrInternal, ex.Version, info.Version)
		return Outcome{Class: ClassInternal, Err: err}
	}
	grown, err := p.Engine.AppendRows(name, op.AppendRows)
	if err != nil {
		return Outcome{Class: classifyErr(err), Err: err}
	}
	if grown.Generation <= info.Generation {
		err := fmt.Errorf("%w: churn append generation %d not past registered %d", engine.ErrInternal, grown.Generation, info.Generation)
		return Outcome{Class: ClassInternal, Err: err}
	}
	ans, _, err := p.Engine.ExplainAnswer(ctx, name, op.Query)
	if err != nil {
		return Outcome{Class: classifyErr(err), Err: err}
	}
	if ans.Version != grown.Version {
		err := fmt.Errorf("%w: churn answer served version %s after append to %s", engine.ErrInternal, ans.Version, grown.Version)
		return Outcome{Class: ClassInternal, Err: err}
	}
	return Outcome{Class: ClassOK}
}

// HTTPTarget drives a live wtq-server over its JSON API.
type HTTPTarget struct {
	Base     string
	Client   *http.Client
	churnSeq atomic.Uint64
}

// NewHTTPTarget aims at a wtq-server base URL (e.g.
// "http://localhost:8080").
func NewHTTPTarget(base string) *HTTPTarget {
	return &HTTPTarget{Base: base, Client: &http.Client{}}
}

// Close implements Target.
func (h *HTTPTarget) Close() error {
	h.Client.CloseIdleConnections()
	return nil
}

// post sends a JSON body and returns the status and decoded response.
func (h *HTTPTarget) post(ctx context.Context, path string, body any, out any) (int, error) {
	return h.do(ctx, http.MethodPost, path, body, out)
}

// do sends a JSON request with an arbitrary method (POST, PATCH,
// DELETE) and decodes the response into out when given.
func (h *HTTPTarget) do(ctx context.Context, method, path string, body any, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, method, h.Base+path, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, nil
}

// RegisterTables implements Target.
func (h *HTTPTarget) RegisterTables(ts []*table.Table) error {
	for _, t := range ts {
		rows := make([][]string, t.NumRows())
		for r := range rows {
			row := make([]string, t.NumCols())
			for c := range row {
				row[c] = t.Raw(r, c)
			}
			rows[r] = row
		}
		body := map[string]any{"name": t.Name(), "columns": t.Columns(), "rows": rows}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		status, err := h.post(ctx, "/v1/tables", body, nil)
		cancel()
		if err != nil {
			return fmt.Errorf("registering %s: %w", t.Name(), err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d", t.Name(), status)
		}
	}
	return nil
}

// classifyStatus maps an HTTP status to an outcome class, inverting
// wtq-server's errStatus mapping (499 is its client-went-away code).
func classifyStatus(status int) string {
	switch {
	case status < 300:
		return ClassOK
	case status == 499:
		return ClassCanceled
	case status == http.StatusServiceUnavailable:
		return ClassOverloaded
	case status == http.StatusGatewayTimeout:
		return ClassTimeout
	case status >= 500:
		return ClassInternal
	default:
		return ClassClientError
	}
}

// classifyCode maps a failed batch item's error_code (wtq-server's
// envelope vocabulary) to an outcome class, as classifyStatus does for
// whole responses.
func classifyCode(code string) string {
	switch code {
	case "deadline_exceeded":
		return ClassTimeout
	case "canceled":
		return ClassCanceled
	case "overloaded", "unavailable":
		return ClassOverloaded
	case "internal":
		return ClassInternal
	default:
		return ClassClientError
	}
}

type cachedBody struct {
	Cached bool `json:"cached"`
}

// Do implements Target.
func (h *HTTPTarget) Do(ctx context.Context, op Op) Outcome {
	ctx, cancel := opCtx(ctx, op)
	defer cancel()
	switch op.Kind {
	case OpExplain:
		return h.simplePost(ctx, "/v1/explain", map[string]string{"table": op.Table, "query": op.Query})
	case OpAnswer:
		return h.simplePost(ctx, "/v1/answer", map[string]string{"table": op.Table, "query": op.Query})
	case OpParse:
		return h.simplePost(ctx, "/v1/parse", map[string]string{"table": op.Table, "question": op.Question})
	case OpChurn:
		return h.doChurn(ctx, op)
	case OpBatch:
		queries := make([]map[string]string, len(op.Batch))
		for i, e := range op.Batch {
			queries[i] = map[string]string{"table": e.Table, "query": e.Query}
		}
		body := map[string]any{"queries": queries}
		if op.TimeoutMs > 0 {
			body["timeout_ms"] = op.TimeoutMs
		}
		var resp struct {
			Results []struct {
				Cached    bool   `json:"cached"`
				Error     string `json:"error"`
				ErrorCode string `json:"error_code"`
			} `json:"results"`
			Errors int `json:"errors"`
		}
		status, err := h.post(ctx, "/v1/explain/batch", body, &resp)
		if err != nil {
			return transportOutcome(ctx, err)
		}
		out := Outcome{Class: classifyStatus(status)}
		okCount, cachedOK := 0, 0
		for _, r := range resp.Results {
			if r.Error != "" {
				out.Class = worseClass(out.Class, classifyCode(r.ErrorCode))
			} else {
				okCount++
				if r.Cached {
					cachedOK++
				}
			}
		}
		out.Cached = okCount > 0 && cachedOK == okCount
		return out
	default:
		return Outcome{Class: ClassClientError, Err: fmt.Errorf("unknown op kind %q", op.Kind)}
	}
}

// doChurn drives one table lifecycle over the wire: POST /v1/tables,
// POST /v1/explain, PATCH /v1/tables/{name}, POST /v1/answer,
// DELETE /v1/tables/{name}. Version stamps are cross-checked exactly
// like the in-process path.
func (h *HTTPTarget) doChurn(ctx context.Context, op Op) Outcome {
	name := fmt.Sprintf("%s_%d", op.Table, h.churnSeq.Add(1))
	var reg struct {
		Version    string `json:"version"`
		Generation uint64 `json:"generation"`
	}
	status, err := h.post(ctx, "/v1/tables", map[string]any{"name": name, "columns": op.Columns, "rows": op.Rows}, &reg)
	if err != nil {
		return transportOutcome(ctx, err)
	}
	if status != http.StatusCreated {
		return Outcome{Class: classifyStatus(status), Err: fmt.Errorf("churn register: status %d", status)}
	}
	defer func() {
		// Cleanup runs even when the op's context is spent.
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = h.do(cctx, http.MethodDelete, "/v1/tables/"+name, nil, nil)
	}()
	var ex struct {
		Version string `json:"version"`
	}
	status, err = h.post(ctx, "/v1/explain", map[string]string{"table": name, "query": op.Query}, &ex)
	if err != nil {
		return transportOutcome(ctx, err)
	}
	if status != http.StatusOK {
		return Outcome{Class: classifyStatus(status), Err: fmt.Errorf("churn explain: status %d", status)}
	}
	if ex.Version != reg.Version {
		return Outcome{Class: ClassInternal, Err: fmt.Errorf("churn explain version %s, registered %s", ex.Version, reg.Version)}
	}
	var grown struct {
		Version    string `json:"version"`
		Generation uint64 `json:"generation"`
	}
	status, err = h.do(ctx, http.MethodPatch, "/v1/tables/"+name, map[string]any{"rows": op.AppendRows}, &grown)
	if err != nil {
		return transportOutcome(ctx, err)
	}
	if status != http.StatusOK {
		return Outcome{Class: classifyStatus(status), Err: fmt.Errorf("churn append: status %d", status)}
	}
	if grown.Generation <= reg.Generation {
		return Outcome{Class: ClassInternal, Err: fmt.Errorf("churn append generation %d not past registered %d", grown.Generation, reg.Generation)}
	}
	var ans struct {
		Version string `json:"version"`
	}
	status, err = h.post(ctx, "/v1/answer", map[string]string{"table": name, "query": op.Query}, &ans)
	if err != nil {
		return transportOutcome(ctx, err)
	}
	if status != http.StatusOK {
		return Outcome{Class: classifyStatus(status), Err: fmt.Errorf("churn answer: status %d", status)}
	}
	if ans.Version != grown.Version {
		return Outcome{Class: ClassInternal, Err: fmt.Errorf("churn answer version %s after append to %s", ans.Version, grown.Version)}
	}
	return Outcome{Class: ClassOK}
}

func (h *HTTPTarget) simplePost(ctx context.Context, path string, body any) Outcome {
	var cb cachedBody
	status, err := h.post(ctx, path, body, &cb)
	if err != nil {
		return transportOutcome(ctx, err)
	}
	return Outcome{Class: classifyStatus(status), Cached: cb.Cached}
}

// transportOutcome distinguishes a deadline-killed request and a
// canceled one from a genuinely failed connection.
func transportOutcome(ctx context.Context, err error) Outcome {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		return Outcome{Class: ClassTimeout, Err: err}
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		return Outcome{Class: ClassCanceled, Err: err}
	default:
		return Outcome{Class: ClassTransport, Err: err}
	}
}

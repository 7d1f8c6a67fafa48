package main

// The loopback pass: a real wtq-server child driven over 127.0.0.1 by
// two closed-loop connections from this one process. Every response is
// checked; set-up, window, crash recovery and clean shutdown each feed
// their metrics.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	clients         = 2 // connections, one closed loop on each; the sandbox has 2 cores
	blocksPerServer = 4 // each server's share of the window is cut into this many blocks
	rttPings        = 300
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples are the values the metric is a median of (window blocks,
	// servers, repeated set-ups and recoveries), kept in the -out report,
	// and Spread their quartile distance as a share of that median.
	Samples []float64 `json:"samples,omitempty"`
	Spread  float64   `json:"spread,omitempty"`
}

// result is what one workload's run reports.
type result struct {
	Workload     string                 `json:"workload"`
	InputsSHA256 string                 `json:"inputs_sha256"`
	ServerFlags  []string               `json:"server_flags"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`

	trace *traceFile // spans of the per-layer pass, for -trace-out
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.msgs) < 10 {
			t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

type ack struct {
	rows    int
	version string
}

// loopback is the state of one workload's loopback pass.
type loopback struct {
	bin   string // server binary
	dir   string // this pass's temp directory
	w     *workload
	tally *tally
	http  *http.Client // for /metrics scrapes, outside the window

	seen []atomic.Uint64 // first response hash per op ID; 0 = not yet seen
	next atomic.Int64    // position in the cyclic stream, carried from server to server

	// Memory is read when the current server has completed RSSAfter ops
	// of its window, not when its time is up: how far a server gets in
	// its share varies with the machine, and what it has allocated by
	// then varies with it.
	cur       *server
	completed atomic.Int64
	rssMB     atomic.Uint64 // math.Float64bits; 0 until read

	mu     sync.Mutex
	acked  map[string]ack   // last acknowledged state per table
	ubytes map[string]int64 // user bytes per live table
}

func newLoopback(bin, dir string, w *workload) *loopback {
	maxID := -1
	for _, ops := range [][]op{w.Warmup, w.Ops, w.Reads} {
		for i := range ops {
			maxID = max(maxID, ops[i].ID)
		}
	}
	return &loopback{
		bin: bin, dir: dir, w: w, tally: &tally{},
		http: &http.Client{Timeout: 60 * time.Second},
		seen: make([]atomic.Uint64, maxID+1),
	}
}

// client is one connection's closed loop, used by one goroutine. It
// speaks HTTP/1.1 on a socket of its own, and checks explanations with
// scanJSON, rather than going through http.Client and encoding/json.
// Measured on explain_hot (three interleaved pairs of runs): with the
// standard library the load generator spends 0.28-0.31 ms of CPU per
// op against 0.08-0.09 ms this way, while the server it shares two
// cores with spends 0.14-0.16 ms; the client-observed p50 rises from
// 0.23-0.27 to 0.31-0.33 ms, throughput halves, and the server's own
// CPU per op reads 20 % higher for the contention. The generator would
// be most of what the benchmark measures. Requests outside the timed
// path (/metrics scrapes, the table listing) and ask's one decode per
// 6 ms op use the standard library.
type client struct {
	l    *loopback
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	buf  bytes.Buffer
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip sends one request and reads the whole response. The
// returned body is valid until the client's next request.
func (c *client) roundTrip(method, path string, body []byte) (status int, resp []byte, ms float64, err error) {
	if c.conn == nil {
		if c.conn, err = net.DialTimeout("tcp", c.addr, 10*time.Second); err != nil {
			return 0, nil, 0, err
		}
		c.br = bufio.NewReaderSize(c.conn, 64<<10)
	}
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if body != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)

	start := time.Now()
	_ = c.conn.SetDeadline(start.Add(60 * time.Second)) // a TCP socket always takes a deadline
	if _, err = c.conn.Write(c.req); err != nil {
		c.close()
		return 0, nil, 0, err
	}
	r, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(r.Body)
	ms = float64(time.Since(start)) / float64(time.Millisecond)
	r.Body.Close()
	if err != nil || r.Close {
		c.close()
	}
	return r.StatusCode, c.buf.Bytes(), ms, err
}

// timing is what one op contributes to the latency classes.
type timing struct {
	total, parse, batch float64 // ms; parse and batch only for ask ops
}

// sameAsFirst records the first response hash seen for an op ID and
// compares every later one with it: a cached reply must equal the
// computed one.
func (l *loopback) sameAsFirst(id int, h uint64) bool {
	if id < 0 {
		return true
	}
	if h == 0 {
		h = 1
	}
	if l.seen[id].CompareAndSwap(0, h) {
		return true
	}
	return l.seen[id].Load() == h
}

// exec runs one op and checks its response; a failed check is a failed op.
func (c *client) exec(o *op) (timing, bool) {
	t, err := c.execErr(o)
	return t, c.l.tally.check(err == nil, "%s %q on %s: %v", kindNames[o.Kind], o.Query, o.Table, err)
}

var kindNames = [...]string{"explain", "answer", "ask", "register", "append", "drop"}

func (c *client) execErr(o *op) (timing, error) {
	switch o.Kind {
	case kindExplain, kindAnswer:
		path := "/v1/explain"
		if o.Kind == kindAnswer {
			path = "/v1/answer"
		}
		status, body, ms, err := c.roundTrip("POST", path, o.body)
		if err != nil {
			return timing{}, err
		}
		if status != http.StatusOK {
			return timing{}, fmt.Errorf("status %d: %.200s", status, body)
		}
		var got []byte
		h, err := scanJSON(body, func(depth int, key, val []byte) {
			if depth == 1 && string(key) == `"result"` {
				got = val
			}
		})
		if err != nil {
			return timing{}, err
		}
		if o.Want != "" && jsonText(got) != o.Want {
			return timing{}, fmt.Errorf("result %s, the harness computed %q", got, o.Want)
		}
		if !c.l.sameAsFirst(o.ID, h) {
			return timing{}, fmt.Errorf("response differs from the first one seen for this query")
		}
		return timing{total: ms}, nil

	case kindAsk:
		return c.ask(o)

	case kindRegister, kindAppend, kindDrop:
		method, path, want := "POST", "/v1/tables", http.StatusCreated
		if o.Kind == kindAppend {
			method, path, want = "PATCH", "/v1/tables/"+o.Table, http.StatusOK
		} else if o.Kind == kindDrop {
			method, path, want = "DELETE", "/v1/tables/"+o.Table, http.StatusOK
		}
		status, body, ms, err := c.roundTrip(method, path, o.body)
		if err != nil {
			return timing{}, err
		}
		if status != want {
			return timing{}, fmt.Errorf("status %d, want %d: %.200s", status, want, body)
		}
		return timing{total: ms}, c.l.acknowledge(o, body)
	}
	panic("unknown op kind")
}

// ask is the paper's Figure-2 loop: parse the question into candidates,
// then have every candidate explained in one batch.
func (c *client) ask(o *op) (timing, error) {
	status, body, parseMs, err := c.roundTrip("POST", "/v1/parse", o.body)
	if err != nil {
		return timing{}, err
	}
	if status != http.StatusOK {
		return timing{}, fmt.Errorf("parse status %d: %.200s", status, body)
	}
	var parsed struct {
		Candidates []struct {
			Query     string `json:"query"`
			Utterance string `json:"utterance"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		return timing{}, fmt.Errorf("parse response: %w", err)
	}
	if len(parsed.Candidates) == 0 {
		return timing{}, fmt.Errorf("no candidates")
	}
	h1, err := scanJSON(body, nil)
	if err != nil {
		return timing{}, err
	}
	type q struct {
		Table string `json:"table"`
		Query string `json:"query"`
	}
	queries := make([]q, len(parsed.Candidates))
	for i, cand := range parsed.Candidates {
		queries[i] = q{o.Table, cand.Query}
	}
	status, body, batchMs, err := c.roundTrip("POST", "/v1/explain/batch", jsonBody(map[string]any{"queries": queries}))
	if err != nil {
		return timing{}, err
	}
	if status != http.StatusOK {
		return timing{}, fmt.Errorf("batch status %d: %.200s", status, body)
	}
	var utterances []string
	errors := "?"
	h2, err := scanJSON(body, func(depth int, key, val []byte) {
		switch {
		case depth == 4 && string(key) == `"utterance"`:
			utterances = append(utterances, jsonText(val))
		case depth == 1 && string(key) == `"errors"`:
			errors = string(val)
		}
	})
	if err != nil {
		return timing{}, err
	}
	if errors != "0" || len(utterances) != len(parsed.Candidates) {
		return timing{}, fmt.Errorf("batch explained %d of %d candidates, errors=%s", len(utterances), len(parsed.Candidates), errors)
	}
	for i, cand := range parsed.Candidates {
		if utterances[i] != cand.Utterance {
			return timing{}, fmt.Errorf("candidate %d: parse said %q, batch said %q", i, cand.Utterance, utterances[i])
		}
	}
	if !c.l.sameAsFirst(o.ID, h1*31+h2) {
		return timing{}, fmt.Errorf("responses differ from the first ones seen for this question")
	}
	return timing{total: parseMs + batchMs, parse: parseMs, batch: batchMs}, nil
}

// acknowledge checks a mutation's reply against what the harness knows
// the table must now hold, and records it as the acked state.
func (l *loopback) acknowledge(o *op, body []byte) error {
	var rows, version []byte
	if _, err := scanJSON(body, func(_ int, key, val []byte) {
		switch string(key) {
		case `"rows"`:
			rows = val
		case `"version"`:
			version = val
		}
	}); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	want := len(o.Rows)
	switch o.Kind {
	case kindAppend:
		want += l.acked[o.Table].rows
		l.ubytes[o.Table] += userBytes(nil, o.Rows)
	case kindRegister:
		l.ubytes[o.Table] = userBytes(o.Cols, o.Rows)
	case kindDrop:
		want = l.acked[o.Table].rows
		delete(l.acked, o.Table)
		delete(l.ubytes, o.Table)
	}
	if string(rows) != strconv.Itoa(want) {
		return fmt.Errorf("acked %s rows, want %d", rows, want)
	}
	if o.Kind != kindDrop {
		l.acked[o.Table] = ack{want, jsonText(version)}
	}
	return nil
}

// listTables fetches the server's catalogue.
func (c *client) listTables() (map[string]ack, error) {
	status, body, _, err := c.roundTrip("GET", "/v1/tables", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/tables: status %d", status)
	}
	var list struct {
		Tables []struct {
			Name    string `json:"name"`
			Version string `json:"version"`
			Rows    int    `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, err
	}
	out := make(map[string]ack, len(list.Tables))
	for _, t := range list.Tables {
		out[t.Name] = ack{t.Rows, t.Version}
	}
	return out, nil
}

// verifyState checks that the server holds exactly the acked tables,
// each with the acked rows and version.
func (c *client) verifyState(when string) {
	got, err := c.listTables()
	if !c.l.tally.check(err == nil, "%s: %v", when, err) {
		return
	}
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	c.l.tally.check(len(got) == len(c.l.acked), "%s: server holds %d tables, %d were acked", when, len(got), len(c.l.acked))
	for name, want := range c.l.acked {
		c.l.tally.check(got[name] == want, "%s: table %s is %+v, acked %+v", when, name, got[name], want)
	}
}

func (l *loopback) client(s *server) *client { return &client{l: l, addr: s.addr} }

// awaitHealthy polls healthz until the server answers ok.
func (c *client) awaitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, _, err := c.roundTrip("GET", "/v1/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz not ok within 30s (status %d, err %v)", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// each runs fn over ops on `clients` connections, every connection
// taking the next op in order as soon as its previous one completes.
func (l *loopback) each(s *server, ops []op, fn func(c *client, o *op)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := l.client(s)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				fn(c, &ops[i])
			}
		}()
	}
	wg.Wait()
}

func (l *loopback) serverArgs(dataDir string, withCSV bool) ([]string, error) {
	args := append([]string{"-data-dir", dataDir}, l.w.ServerFlags...)
	if !withCSV {
		return args, nil
	}
	for _, t := range l.w.CSV {
		path := filepath.Join(l.dir, t.Name+".csv")
		if _, err := os.Stat(path); err != nil {
			if err := os.WriteFile(path, t.csv(), 0o644); err != nil {
				return nil, err
			}
		}
		args = append(args, path)
	}
	return args, nil
}

// setUp starts a fresh server on an empty data dir and brings it to the
// state the window starts from: healthy, corpus registered, warm-up
// done. It returns the seconds from exec to that point.
func (l *loopback) setUp(dataDir string) (*server, float64, error) {
	l.mu.Lock()
	l.acked, l.ubytes = map[string]ack{}, map[string]int64{}
	l.mu.Unlock()
	for i := range l.seen {
		l.seen[i].Store(0)
	}
	args, err := l.serverArgs(dataDir, true)
	if err != nil {
		return nil, 0, err
	}
	s, err := startServer(l.bin, args...)
	if err != nil {
		return nil, 0, err
	}
	c := l.client(s)
	defer c.close()
	if err := c.awaitHealthy(); err != nil {
		s.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("%w\n%s", err, s.log())
	}
	regs := make([]op, len(l.w.Tables))
	for i, t := range l.w.Tables {
		regs[i] = registerOp(t.Name, t.Columns, t.Rows)
	}
	l.each(s, regs, func(c *client, o *op) { c.exec(o) })
	if len(l.w.CSV) > 0 {
		// Tables loaded from CSV were never acked over HTTP; what the
		// server lists now is the state it must come back with.
		got, err := c.listTables()
		l.tally.check(err == nil, "listing CSV tables: %v", err)
		l.mu.Lock()
		for _, t := range l.w.CSV {
			l.acked[t.Name] = got[t.Name]
			l.ubytes[t.Name] = userBytes(t.Columns, t.Rows)
		}
		l.mu.Unlock()
	}
	l.each(s, l.w.Warmup, func(c *client, o *op) { c.exec(o) })
	secs := time.Since(s.exec).Seconds()

	l.mu.Lock()
	for name, rows := range l.w.Final {
		l.tally.check(l.acked[name].rows == rows, "after set-up table %s has %d rows, want %d", name, l.acked[name].rows, rows)
	}
	l.mu.Unlock()
	return s, secs, nil
}

// window is what the timed window measured.
type window struct {
	lat     [3][][]float64 // primary, alt, ask's parse request -> block -> ms
	ops     int            // ops of the stream completed
	rows    int64          // table rows covered by successful full-scan-class ops
	seconds float64
}

func newWindow() *window {
	w := &window{}
	for i := range w.lat {
		w.lat[i] = make([][]float64, blocksPerServer)
	}
	return w
}

// opDone counts an op of the current server's window and reads the
// server's peak memory when the count reaches the workload's mark.
func (l *loopback) opDone() {
	if l.completed.Add(1) == int64(l.w.RSSAfter) {
		if mb, err := l.cur.peakRSSMB(); err == nil {
			l.rssMB.Store(math.Float64bits(mb))
		}
	}
}

func (w *window) record(block int, o *op, t timing, ok bool) {
	w.ops++
	if !ok {
		return
	}
	w.rows += int64(o.Scan)
	switch {
	case o.Kind == kindAsk:
		w.lat[0][block] = append(w.lat[0][block], t.total)
		w.lat[1][block] = append(w.lat[1][block], t.batch)
		w.lat[2][block] = append(w.lat[2][block], t.parse)
	case o.Class <= classAlt:
		w.lat[o.Class][block] = append(w.lat[o.Class][block], t.total)
	}
}

// extend appends another server's share of the window.
func (w *window) extend(o *window) {
	w.ops += o.ops
	w.rows += o.rows
	w.seconds += o.seconds
	for c := range w.lat {
		w.lat[c] = append(w.lat[c], o.lat[c]...)
	}
}

// merge folds in what another connection measured on the same server.
func (w *window) merge(o *window) {
	w.ops += o.ops
	w.rows += o.rows
	for c := range w.lat {
		for b := range w.lat[c] {
			w.lat[c][b] = append(w.lat[c][b], o.lat[c][b]...)
		}
	}
}

// measure runs one server's share of the timed window: `clients` closed
// loops draw ops from the cyclic stream in order until the time is up.
// An op belongs to the block it started in.
func (l *loopback) measure(s *server, d time.Duration) *window {
	total := newWindow()
	l.cur = s
	l.completed.Store(0)
	l.rssMB.Store(0)
	start := time.Now()
	blockOf := func(t time.Time) int {
		return min(blocksPerServer-1, int(int64(t.Sub(start))*blocksPerServer/int64(d)))
	}
	if l.w.Reads != nil {
		l.lockstep(s, d, total)
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, mine := l.client(s), newWindow()
				defer c.close()
				for {
					now := time.Now()
					if now.Sub(start) >= d {
						break
					}
					o := &l.w.Ops[int(l.next.Add(1)-1)%len(l.w.Ops)]
					t, ok := c.exec(o)
					mine.record(blockOf(now), o, t, ok)
					l.opDone()
				}
				mu.Lock()
				total.merge(mine)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	total.seconds = time.Since(start).Seconds()
	return total
}

// lockstep drives a stream whose ops come in pairs: the mutation on one
// connection and the paired read on the other start together, and the
// next pair starts when both are done. One pair is one op of the stream.
//
// The share is counted in pairs, not seconds — as many as the sandbox
// completes in d — so that every server is killed at the same point of
// the stream: the log tail a recovery has to replay, the checkpoints
// made and the work per op are then the same from run to run.
func (l *loopback) lockstep(s *server, d time.Duration, total *window) {
	pairs := int(d.Seconds() * float64(l.w.PairsPerSecond))
	type readResult struct {
		t  timing
		ok bool
	}
	reads := make(chan *op)
	results := make(chan readResult)
	go func() {
		c := l.client(s)
		defer c.close()
		for o := range reads {
			t, ok := c.exec(o)
			results <- readResult{t, ok}
		}
	}()
	defer close(reads)
	c := l.client(s)
	defer c.close()
	for i := 0; i < pairs; i++ {
		b := i * blocksPerServer / pairs
		mut, read := &l.w.Ops[i%len(l.w.Ops)], &l.w.Reads[i%len(l.w.Reads)]
		reads <- read
		t, ok := c.exec(mut)
		r := <-results
		total.record(b, mut, t, ok)
		total.record(b, read, r.t, r.ok)
		total.ops-- // the pair is one op
		l.opDone()
	}
}

// rttFloor is the median healthz round trip: what the socket, the HTTP
// stack and the scheduler cost before the program does any work.
func (c *client) rttFloor() float64 {
	ms := make([]float64, 0, rttPings)
	for range rttPings {
		if status, _, t, err := c.roundTrip("GET", "/v1/healthz", nil); err == nil && status == http.StatusOK {
			ms = append(ms, t)
		}
	}
	return median(ms) * 1000
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// recoverOnce starts a server on a copy of the crashed data dir, with
// no CSV to load from, and returns the seconds from exec until it is
// healthy and holds every acked table at the acked rows and version.
func (l *loopback) recoverOnce(crashed, dataDir string) (*server, float64, error) {
	if err := copyDir(crashed, dataDir); err != nil {
		return nil, 0, err
	}
	args, _ := l.serverArgs(dataDir, false)
	s, err := startServer(l.bin, args...)
	if err != nil {
		return nil, 0, err
	}
	c := l.client(s)
	defer c.close()
	if err := c.awaitHealthy(); err != nil {
		s.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("%w\n%s", err, s.log())
	}
	c.verifyState("after recovery")
	return s, time.Since(s.exec).Seconds(), nil
}

// diskRatio recovers once more and shuts that server down cleanly, which
// checkpoints: what the data dir then holds, over the user bytes of the
// live tables, is what they cost on disk.
func (l *loopback) diskRatio(crashed string) (float64, error) {
	for try := 0; ; try++ {
		dir := filepath.Join(l.dir, "shutdown-"+strconv.Itoa(try))
		defer os.RemoveAll(dir)
		s, _, err := l.recoverOnce(crashed, dir)
		if err != nil {
			return 0, err
		}
		// The server installs its signal handler just after it starts
		// to listen; a SIGTERM that beats the handler kills it with no
		// shutdown at all.
		time.Sleep(50 * time.Millisecond)
		s.stop(syscall.SIGTERM)
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
			if try < 2 {
				continue
			}
			return 0, fmt.Errorf("clean shutdown left no checkpoint: %w\n%s", err, s.log())
		}
		stored, err := dirBytes(dir)
		if err != nil {
			return 0, err
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		var user int64
		for _, n := range l.ubytes {
			user += n
		}
		return float64(stored) / float64(max(user, 1)), nil
	}
}

// run is the whole loopback pass of one workload. The window is shared
// out evenly over `servers` fresh server processes, each set up from
// nothing: a process keeps, for as long as it lives, a level of its own
// (+-5 % in latency and in CPU per op on this sandbox, whatever the
// code), so one process per run would make runs of the same code
// disagree by that much.
func (l *loopback) run(seconds, servers, recoveries int) (*result, error) {
	res := &result{
		Workload:     l.w.Name,
		InputsSHA256: l.w.fingerprint(),
		ServerFlags:  append([]string{"-addr", "127.0.0.1:0", "-data-dir", "<tmp>"}, l.w.ServerFlags...),
		EndToEnd:     map[string]metricValue{},
		PerLayer:     map[string]metricValue{},
	}
	e2e := specByName(endToEnd)
	layer := specByName(perLayer)
	// A metric is the median of its samples; a single sample is itself.
	of := func(unit string, samples []float64) metricValue {
		if len(samples) == 1 {
			return metricValue{Value: samples[0], Unit: unit}
		}
		return metricValue{Value: median(samples), Unit: unit, Samples: samples, Spread: relSpread(samples)}
	}
	setE2E := func(name string, samples ...float64) { res.EndToEnd[name] = of(e2e[name].Unit, samples) }
	setLayer := func(name string, samples ...float64) { res.PerLayer[name] = of(layer[name].Unit, samples) }

	var (
		s                  *server
		dataDir, windowLog string
		setupSec, rss      []float64
		cpuPerOp           []float64 // one per server: a burst of outside load spoils one share, not the metric
		win                = &window{}
		cpuUser, cpuSys    float64
		selfCPU            float64
		delta              = map[string]float64{} // /metrics counters, summed over the servers' windows
	)
	defer func() {
		if s != nil {
			s.stop(syscall.SIGKILL)
		}
	}()
	share := time.Duration(seconds) * time.Second / time.Duration(servers)
	for k := 0; k < servers; k++ {
		dataDir = filepath.Join(l.dir, "data-"+strconv.Itoa(k))
		defer os.RemoveAll(dataDir)
		var secs float64
		var err error
		if s, secs, err = l.setUp(dataDir); err != nil {
			return nil, err
		}
		setupSec = append(setupSec, secs)
		c := l.client(s)
		if k == 0 {
			setLayer("server.rtt_floor_us", c.rttFloor())
		}

		before, err := scrape(l.http, s.addr)
		if err != nil {
			return nil, err
		}
		u0, s0, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		self0, opsBefore := selfCPUSeconds(), win.ops
		win.extend(l.measure(s, share))
		selfCPU += selfCPUSeconds() - self0
		u1, s1, err := s.cpuSeconds()
		if err != nil {
			return nil, fmt.Errorf("%w\n%s", err, s.log())
		}
		cpuUser, cpuSys = cpuUser+u1-u0, cpuSys+s1-s0
		cpuPerOp = append(cpuPerOp, 1000*(u1-u0+s1-s0)/float64(max(win.ops-opsBefore, 1)))
		after, err := scrape(l.http, s.addr)
		if err != nil {
			return nil, err
		}
		for name, v := range after {
			delta[name] += v - before[name]
		}
		mb := math.Float64frombits(l.rssMB.Load())
		if mb == 0 {
			// The share ended before the mark: a much slower machine.
			if mb, err = s.peakRSSMB(); err != nil {
				return nil, err
			}
		}
		rss = append(rss, mb)

		// Whatever was acknowledged must be there, on every server.
		c.verifyState("after the window")
		c.close()
		s.stop(syscall.SIGKILL)
		windowLog = s.log()
		l.http.CloseIdleConnections()
	}

	ops := float64(max(win.ops, 1))
	p50s, alts := blockP50s(win.lat[0]), blockP50s(win.lat[1])
	l.tally.check(len(p50s) > 0 && len(alts) > 0, "window too short: no block holds %d primary and %d alt latencies", minBlockSamples, minBlockSamples)
	setE2E("rss_mb", rss...)
	// Interference only ever adds to a set-up, and in a bad minute it adds
	// to most of the five: their fastest says what the program needs, and
	// holds from run to run where their median does not.
	fastest := of(e2e["setup_s"].Unit, setupSec)
	fastest.Value = quantile(setupSec, 0)
	res.EndToEnd["setup_s"] = fastest
	setLayer("client.p50_ms", p50s...)
	setLayer("client.alt_p50_ms", alts...)
	setLayer("server.cpu_ms_per_op", cpuPerOp...)

	primary := flatten(win.lat[0])
	setLayer("server.cpu_user_ms_per_op", 1000*cpuUser/ops)
	setLayer("server.cpu_sys_ms_per_op", 1000*cpuSys/ops)
	setLayer("client.ops_per_s", float64(win.ops)/win.seconds)
	setLayer("client.rows_per_s", float64(win.rows)/win.seconds)
	setLayer("client.p99_ms", quantile(primary, 0.99))
	setLayer("client.max_ms", quantile(primary, 1))
	setLayer("client.samples", float64(len(primary)))
	setLayer("client.cpu_ms_per_op", 1000*selfCPU/ops)
	setLayer("client.parse_p50_ms", median(blockP50s(win.lat[2])))

	// The workload must still be what it claims to be.
	hits, misses := delta["engine_cache_"+l.w.Cache+"_hits"], delta["engine_cache_"+l.w.Cache+"_misses"]
	var err error
	ratio := hits / max(hits+misses, 1)
	l.tally.check(ratio >= l.w.HitLo && ratio <= l.w.HitHi, "%s cache hit ratio %.3f outside [%.2f, %.2f]", l.w.Cache, ratio, l.w.HitLo, l.w.HitHi)
	for name, least := range l.w.MustGrow {
		l.tally.check(delta[name] >= least, "%s rose by %.0f during the window, want at least %.0f", name, delta[name], least)
	}
	for name, least := range l.w.MustGrowPerOp {
		l.tally.check(delta[name] >= least*ops, "%s rose by %.2f per op during the window, want at least %.2f", name, delta[name]/ops, least)
	}
	setLayer("engine.cache_hit_ratio", ratio)
	setLayer("engine.sheds", delta["engine_sheds"])
	setLayer("engine.timeouts", delta["engine_timeouts"])
	setLayer("wal.syncs_per_append", delta["store_wal_syncs"]/max(delta["store_wal_appends"], 1))

	// Recover from what the last server's SIGKILL left behind. Recoveries
	// of the small corpora take tens of milliseconds, so more of them
	// are made: at least `recoveries`, and up to three times as many
	// while they have added up to less than a second.
	var recSec []float64
	for k, total := 0, 0.0; k < recoveries || (total < 1 && k < 3*recoveries); k++ {
		dir := filepath.Join(l.dir, "recover-"+strconv.Itoa(k))
		defer os.RemoveAll(dir)
		var secs float64
		var err error
		if s, secs, err = l.recoverOnce(dataDir, dir); err != nil {
			return nil, err
		}
		s.stop(syscall.SIGKILL)
		recSec = append(recSec, secs)
		total += secs
	}
	setLayer("client.recovery_s", recSec...)

	ratio, err = l.diskRatio(dataDir)
	if err != nil {
		return nil, err
	}
	setE2E("disk_bytes_per_user_byte", ratio)

	res.Attempted, res.Failed, res.Failures = l.tally.attempted, l.tally.failed, l.tally.msgs
	res.Correct = res.Failed == 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "---- %s: log of the last server up to the end of its window ----\n%s", l.w.Name, windowLog)
	}
	return res, nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCrashRecovery is the crash-recovery CI shard: it SIGKILLs a real
// wtq-server mid-churn, in a loop, and after every kill restarts it on
// the same data directory and proves the durability contract — every
// table whose last mutation was acknowledged recovers with the
// identical content-hash version and generation, and the store
// generation resumes at or past the highest acknowledged one.
//
// The test is opt-in (WTQ_CRASH=1): it builds and spawns real
// processes and runs for seconds, which does not belong in the tier-1
// suite. WTQ_CRASH_DIR overrides the data directory so CI can upload
// it as an artifact when the test fails; WTQ_CRASH_ITERS overrides the
// kill count.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("WTQ_CRASH") == "" {
		t.Skip("set WTQ_CRASH=1 to run the crash-recovery shard")
	}
	bin := filepath.Join(t.TempDir(), "wtq-server")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building server: %v\n%s", err, out)
	}
	dataDir := os.Getenv("WTQ_CRASH_DIR")
	if dataDir == "" {
		dataDir = filepath.Join(t.TempDir(), "data")
	}
	iters := 3
	if s := os.Getenv("WTQ_CRASH_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("WTQ_CRASH_ITERS=%q: %v", s, err)
		}
		iters = n
	}

	h := &crashHarness{
		t:       t,
		bin:     bin,
		dataDir: dataDir,
		client:  &http.Client{Timeout: 5 * time.Second},
		acked:   make(map[string]ackedState),
		rng:     rand.New(rand.NewSource(1)),
	}
	srv := h.start()
	for i := 0; i < iters; i++ {
		churn := time.Duration(200+h.rng.Intn(400)) * time.Millisecond
		h.churn(srv, churn)
		t.Logf("iteration %d: SIGKILL after %v of churn (%d acked mutations)", i, churn, h.maxGen)
		srv.kill()
		srv = h.start() // restart on the same data dir = recovery
		h.verify(srv)
	}
	srv.kill()
}

// ackedState is what the durability contract owes one table: the last
// acknowledged snapshot's identity, or its acknowledged absence.
type ackedState struct {
	present bool
	version string
	gen     uint64
}

type crashHarness struct {
	t       *testing.T
	bin     string
	dataDir string
	client  *http.Client
	rng     *rand.Rand

	mu     sync.Mutex
	acked  map[string]ackedState
	inDark map[string]bool // op sent, response never seen (killed in flight)
	maxGen uint64
}

type serverProc struct {
	cmd  *exec.Cmd
	base string
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// start launches the server on :0 against the shared data dir and
// parses the resolved address from its startup log line.
func (h *crashHarness) start() *serverProc {
	h.t.Helper()
	cmd := exec.Command(h.bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", h.dataDir,
		"-checkpoint-interval", "300ms",
		"-checkpoint-bytes", "65536",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		h.t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		h.t.Fatalf("starting server: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					rest = rest[:j]
				}
				select {
				case addrc <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &serverProc{cmd: cmd, base: "http://" + addr}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		h.t.Fatal("server did not log its listen address — recovery hung or failed")
		return nil
	}
}

// churn hammers the server with register/append/drop lifecycles from
// four workers (each owning its own table names, so acknowledgement
// tracking is unambiguous) for roughly d, then SIGKILLs it from under
// them mid-flight.
func (h *crashHarness) churn(srv *serverProc, d time.Duration) {
	h.mu.Lock()
	h.inDark = make(map[string]bool)
	h.mu.Unlock()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("crash_w%d_t%d", w, k%3)
				if !h.register(srv, name, 2+k%5) {
					return
				}
				for a := 0; a < 2; a++ {
					if !h.append(srv, name, a) {
						return
					}
				}
				if k%2 == 0 {
					if !h.drop(srv, name) {
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
}

// mark records an op as in the dark before it is sent; ack clears it
// and books the acknowledged state. Anything still dark at kill time
// may or may not have landed, so verify only bounds it.
func (h *crashHarness) mark(name string) {
	h.mu.Lock()
	h.inDark[name] = true
	h.mu.Unlock()
}

func (h *crashHarness) ack(name string, st ackedState) {
	h.mu.Lock()
	delete(h.inDark, name)
	h.acked[name] = st
	if st.gen > h.maxGen {
		h.maxGen = st.gen
	}
	h.mu.Unlock()
}

type wireInfo struct {
	Name       string `json:"name"`
	Version    string `json:"version"`
	Generation uint64 `json:"generation"`
	Rows       int    `json:"rows"`
}

func (h *crashHarness) register(srv *serverProc, name string, rows int) bool {
	body := map[string]any{"name": name, "columns": []string{"Nation", "Year", "Games"}}
	var rr [][]string
	for i := 0; i < rows; i++ {
		rr = append(rr, []string{"nation" + strconv.Itoa(i%5), strconv.Itoa(1896 + 4*i), strconv.Itoa(i)})
	}
	body["rows"] = rr
	h.mark(name)
	var info wireInfo
	if !h.do(srv, http.MethodPost, "/v1/tables", body, http.StatusCreated, &info) {
		return false
	}
	h.ack(name, ackedState{present: true, version: info.Version, gen: info.Generation})
	return true
}

func (h *crashHarness) append(srv *serverProc, name string, k int) bool {
	body := map[string]any{"rows": [][]string{{"nation9", strconv.Itoa(2000 + k), strconv.Itoa(k)}}}
	h.mark(name)
	var info wireInfo
	if !h.do(srv, http.MethodPatch, "/v1/tables/"+name, body, http.StatusOK, &info) {
		return false
	}
	h.ack(name, ackedState{present: true, version: info.Version, gen: info.Generation})
	return true
}

func (h *crashHarness) drop(srv *serverProc, name string) bool {
	h.mark(name)
	var resp struct {
		Dropped wireInfo `json:"dropped"`
	}
	if !h.do(srv, http.MethodDelete, "/v1/tables/"+name, nil, http.StatusOK, &resp) {
		return false
	}
	h.ack(name, ackedState{present: false, gen: resp.Dropped.Generation})
	return true
}

// do sends one request; any transport error or unexpected status reads
// as "the kill landed" and stops the worker. A response only counts as
// an acknowledgement when it decoded cleanly with the wanted status.
func (h *crashHarness) do(srv *serverProc, method, path string, body any, wantStatus int, out any) bool {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Errorf("marshal: %v", err)
			return false
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, srv.base+path, rd)
	if err != nil {
		h.t.Errorf("request: %v", err)
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false
		}
	}
	return true
}

// verify checks the recovered catalog against every acknowledged
// mutation. Tables with an op in the dark at kill time are only
// bounded (the op may or may not have landed); everything else must
// match exactly.
func (h *crashHarness) verify(srv *serverProc) {
	h.t.Helper()
	var listing struct {
		Tables []wireInfo `json:"tables"`
	}
	if !h.do(srv, http.MethodGet, "/v1/tables", nil, http.StatusOK, &listing) {
		h.t.Fatal("listing tables after recovery failed")
	}
	got := make(map[string]wireInfo, len(listing.Tables))
	for _, ti := range listing.Tables {
		got[ti.Name] = ti
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, want := range h.acked {
		ti, present := got[name]
		if h.inDark[name] {
			// The in-flight op may have landed: accept the acked state or
			// any strictly later one, but never a regression.
			if present && ti.Generation < want.gen {
				h.t.Errorf("table %s recovered at generation %d, below acknowledged %d", name, ti.Generation, want.gen)
			}
			continue
		}
		if want.present {
			if !present {
				h.t.Errorf("table %s lost: last acknowledged mutation (gen %d, version %s) not recovered", name, want.gen, want.version)
				continue
			}
			if ti.Version != want.version || ti.Generation != want.gen {
				h.t.Errorf("table %s recovered as (gen %d, version %s), acknowledged (gen %d, version %s)",
					name, ti.Generation, ti.Version, want.gen, want.version)
			}
		} else if present {
			h.t.Errorf("table %s resurrected after acknowledged drop (recovered gen %d)", name, ti.Generation)
		}
	}
	if g, err := h.storeGeneration(srv); err != nil {
		h.t.Fatalf("reading store_generation after recovery: %v", err)
	} else if g < h.maxGen {
		h.t.Errorf("recovered store generation %d below highest acknowledged %d", g, h.maxGen)
	}
}

// storeGeneration finds the store_generation sample in the child's
// GET /metrics text.
func (h *crashHarness) storeGeneration(srv *serverProc) (uint64, error) {
	resp, err := h.client.Get(srv.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if v, ok := strings.CutPrefix(sc.Text(), "store_generation "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("GET /metrics (status %d) carries no store_generation line", resp.StatusCode)
}

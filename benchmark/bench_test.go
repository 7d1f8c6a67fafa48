package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
)

// The web workloads are cheap to generate; scan builds a 131072-row
// table, so the tests that need every workload generate each once.
var generated = map[string]*workload{}

func gen(name string) *workload {
	if generated[name] == nil {
		generated[name] = workloadGens[name](1)
	}
	return generated[name]
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames() {
		if name == "scan" && testing.Short() {
			continue
		}
		first := gen(name).fingerprint()
		if again := workloadGens[name](1).fingerprint(); again != first {
			t.Errorf("%s: seed 1 gave fingerprints %s and %s", name, first, again)
		}
		if other := workloadGens[name](2).fingerprint(); other == first {
			t.Errorf("%s: seeds 1 and 2 gave the same fingerprint", name)
		}
	}
}

// The byte-identical half of determinism: the request bodies themselves.
func TestSameSeedSameBytes(t *testing.T) {
	a, b := gen("explain_cold"), genExplainCold(1)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op counts differ: %d and %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if string(a.Ops[i].body) != string(b.Ops[i].body) {
			t.Fatalf("op %d differs: %s and %s", i, a.Ops[i].body, b.Ops[i].body)
		}
	}
	if string(a.Tables[5].csv()) != string(b.Tables[5].csv()) {
		t.Fatal("table 5 differs between two generations of seed 1")
	}
}

func distinct(ops []op) int {
	seen := map[string]bool{}
	for _, o := range ops {
		seen[o.Table+"\x00"+o.Query] = true
	}
	return len(seen)
}

func TestPoolsOutsizeTheCaches(t *testing.T) {
	if n := distinct(gen("explain_cold").Ops); n < 8*cacheEntries {
		t.Errorf("explain_cold has %d distinct queries, want at least %d", n, 8*cacheEntries)
	}
	if n := distinct(gen("ask").Ops); n < 4*cacheEntries {
		t.Errorf("ask has %d distinct questions, want at least %d", n, 4*cacheEntries)
	}
	hot := gen("explain_hot")
	if n := distinct(hot.Ops); n > hotQueries || n < hotQueries/2 {
		t.Errorf("explain_hot draws %d distinct queries, want about %d and never more", n, hotQueries)
	}
	if n := distinct(hot.Warmup); n != hotQueries {
		t.Errorf("explain_hot warms %d distinct queries, want %d", n, hotQueries)
	}
	if !testing.Short() {
		scan := gen("scan")
		if n := distinct(scan.Ops); n != scanPool || n < 4*cacheEntries {
			t.Errorf("scan has %d distinct queries in a pool of %d", n, scanPool)
		}
	}
}

func TestScanMix(t *testing.T) {
	counts := map[rune]int{}
	for _, c := range scanPattern {
		counts[c]++
	}
	want := map[rune]int{'a': 9, 'n': 2, 's': 2, 'w': 2, 'z': 7, 'p': 3}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("scan pattern has %d of %q, want %d", counts[c], c, n)
		}
	}
	if len(scanPattern) != 25 {
		t.Errorf("scan pattern has %d ops, want 25", len(scanPattern))
	}
}

// Every explain query must run, and where the harness has an answer of
// its own the module must agree with it.
func TestOracleAgreesWithTheModule(t *testing.T) {
	w := gen("explain_cold")
	tables := map[string]*table.Table{}
	for _, td := range w.Tables {
		tab, err := table.New(td.Name, td.Columns, td.Rows)
		if err != nil {
			t.Fatal(err)
		}
		tables[td.Name] = tab
	}
	checked := 0
	for _, ops := range [][]op{w.Ops, w.Warmup} {
		for _, o := range ops {
			q, err := dcs.Parse(o.Query)
			if err != nil {
				t.Fatalf("%s: %v", o.Query, err)
			}
			res, err := dcs.ExecuteAnswer(q, tables[o.Table])
			if err != nil {
				t.Fatalf("%s on %s: %v", o.Query, o.Table, err)
			}
			if o.Want != "" {
				checked++
				if res.String() != o.Want {
					t.Fatalf("%s on %s: module says %s, harness says %s", o.Query, o.Table, res, o.Want)
				}
			}
		}
	}
	if checked < 1500 {
		t.Errorf("only %d queries carry an oracle", checked)
	}
}

func TestQuestionsYieldCandidates(t *testing.T) {
	w := gen("ask")
	p := semparse.NewUncachedParser()
	byName := map[string]*tableData{}
	for _, td := range w.Tables {
		byName[td.Name] = td
	}
	for i := 0; i < len(w.Ops); i += 97 {
		td := byName[w.Ops[i].Table]
		tab, err := table.New(td.Name, td.Columns, td.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(p.ParseAll(w.Ops[i].Query, tab)); n == 0 {
			t.Errorf("%q on %s yields no candidate", w.Ops[i].Query, td.Name)
		}
	}
}

// The mutate period must return every table to where it began, keep
// sizes inside 64..512 rows and aim every read at a table that is live.
func TestMutatePeriod(t *testing.T) {
	w := gen("mutate")
	if len(w.Ops) != mutTables*mutCycle || len(w.Reads) != len(w.Ops) {
		t.Fatalf("period has %d mutations and %d reads, want %d of each", len(w.Ops), len(w.Reads), mutTables*mutCycle)
	}
	rows := map[string]int{}
	for name, n := range w.Final {
		rows[name] = n
	}
	patches := 0
	for i, o := range w.Ops {
		if n, live := rows[w.Reads[i].Table]; !live || n < mutStartRows {
			t.Fatalf("step %d reads %s, which is not live", i, w.Reads[i].Table)
		}
		if w.Reads[i].Table == o.Table {
			t.Fatalf("step %d reads the table it mutates", i)
		}
		switch o.Kind {
		case kindRegister:
			rows[o.Table] = len(o.Rows)
		case kindAppend:
			rows[o.Table] += len(o.Rows)
			patches++
		case kindDrop:
			delete(rows, o.Table)
		}
		if n, live := rows[o.Table]; live && (n < mutStartRows || n > mutMaxRows) {
			t.Fatalf("step %d leaves %s with %d rows", i, o.Table, n)
		}
	}
	if fmt.Sprint(rows) != fmt.Sprint(w.Final) {
		t.Errorf("after one period the tables hold %v, started at %v", rows, w.Final)
	}
	if patches*2 < len(w.Ops) {
		t.Errorf("only %d of %d mutations are PATCHes", patches, len(w.Ops))
	}
}

func TestQuantilesAndBlockMedians(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// One block is a 9 ms outlier, one is too short to have a median.
	blocks := [][]float64{
		{1, 1, 1, 1, 1}, {2, 2, 2, 2, 2}, {3, 3, 3, 3, 3}, {9, 9, 9, 9, 9}, {100, 100},
	}
	p50s := blockP50s(blocks)
	if fmt.Sprint(p50s) != "[1 2 3 9]" {
		t.Errorf("block medians = %v, want [1 2 3 9]", p50s)
	}
	if got := median(p50s); got != 2.5 {
		t.Errorf("median over blocks = %v, want 2.5: the outlier block must not drag it", got)
	}
	if got := relSpread([]float64{90, 100, 100, 110}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.05", got)
	}
}

func TestScanJSON(t *testing.T) {
	pretty := []byte("{\n  \"result\": \"a \\\"b\\\"\",\n  \"grid\": {\"cells\": [[{\"text\": \"x\"}], []]},\n  \"n\": -1.5e3,\n  \"cached\": false\n}\n")
	dense := []byte(`{"result":"a \"b\"","grid":{"cells":[[{"text":"x"}],[]]},"n":-1.5e3,"cached":true}`)
	var seen []string
	h1, err := scanJSON(pretty, func(depth int, key, val []byte) {
		seen = append(seen, fmt.Sprintf("%d %s=%s", depth, key, val))
	})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := scanJSON(dense, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("whitespace or the cached flag changed the hash")
	}
	want := `1 "result"="a \"b\"" | 5 "text"="x" | 1 "n"=-1.5e3 | 1 "cached"=false`
	if got := strings.Join(seen, " | "); got != want {
		t.Errorf("visited %s\nwant    %s", got, want)
	}
	if h3, _ := scanJSON([]byte(`{"result":"a \"c\"","grid":{"cells":[[{"text":"x"}],[]]},"n":-1.5e3,"cached":true}`), nil); h3 == h1 {
		t.Error("a changed value kept the hash")
	}
	if got := jsonText([]byte(`"a \"b\" >"`)); got != `a "b" >` {
		t.Errorf("jsonText = %q", got)
	}
	for _, bad := range []string{`{"a":1`, `{"a" 1}`, `[1,]`, `{"a":1} x`, `{"a":"b}`} {
		if _, err := scanJSON([]byte(bad), nil); err == nil {
			t.Errorf("scanJSON accepted %s", bad)
		}
	}
}

// fakeServer answers /v1/explain with whatever result it is told to,
// through net/http, so the test also covers the client's own HTTP.
func fakeServer(t *testing.T, result *string) *server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) {
		// Large enough to be sent chunked, as real explanations are.
		pad := strings.Repeat("x", 8000)
		fmt.Fprintf(w, "{\n  \"result\": %q,\n  \"pad\": %q,\n  \"cached\": false\n}\n", *result, pad)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &server{addr: ts.Listener.Addr().(*net.TCPAddr).String()}
}

func TestOracleRejectsAWrongCount(t *testing.T) {
	result := "4"
	l := newLoopback("", "", &workload{Ops: []op{{ID: 0}}})
	c := l.client(fakeServer(t, &result))
	defer c.close()

	right := queryOp(kindExplain, classPrimary, "t", "count(City.Bako)", "4")
	right.ID = 0
	if _, ok := c.exec(&right); !ok {
		t.Fatalf("a correct count was rejected: %v", l.tally.msgs)
	}
	wrong := queryOp(kindExplain, classPrimary, "t", "count(City.Bako)", "5")
	if _, ok := c.exec(&wrong); ok {
		t.Fatal("the server said 4, the harness computed 5, and the op passed")
	}
	// Same query, different answer than the first time: cache != compute.
	result = "6"
	unchecked := queryOp(kindExplain, classPrimary, "t", "count(City.Bako)", "")
	unchecked.ID = 0
	if _, ok := c.exec(&unchecked); ok {
		t.Fatal("a response that differs from the first one seen passed")
	}
	if l.tally.attempted != 3 || l.tally.failed != 2 {
		t.Errorf("tally is %d attempted, %d failed; want 3 and 2", l.tally.attempted, l.tally.failed)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100) holds a [10,40) and b [40,90); b holds c [50,60).
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 40, End: 90},
		{Name: "c", Parent: 2, Start: 50, End: 60},
	}
	if got := fmt.Sprint(selfTimes(spans)); got != "[20 30 40 10]" {
		t.Errorf("self times = %s, want [20 30 40 10]", got)
	}
	tr := newTracer()
	tr.do("outer", func() { tr.do("inner", func() {}) })
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 {
		t.Errorf("recorded %+v", tr.spans)
	}
	if o, i := tr.spans[0], tr.spans[1]; i.Start < o.Start || i.End > o.End {
		t.Errorf("inner span %+v is not inside outer %+v", i, o)
	}
	// Three repetitions of op 7: the minimum is kept.
	reps := []span{{Op: 7, Name: "x", Start: 0, End: 9000}, {Op: 7, Name: "x", Start: 0, End: 4000}, {Op: 7, Name: "x", Start: 0, End: 6000}}
	if got := perOpMin(reps)["x"][7]; got != 4 {
		t.Errorf("per-op minimum = %v us, want 4", got)
	}
}

// BENCHMARK.json and spec.go state the same contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(file.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, spec.go %+v", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, spec.go %s/%s/%s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound differs from spec.go's %v", kind, m.Name, m.Bound)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

// TestSmoke runs explain_hot against a real server: two seconds of
// window, one set-up, one recovery, then the per-layer pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns a real wtq-server")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "wtq-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/wtq-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	t.Cleanup(stopAllServers)
	w := gen("explain_hot")
	res, err := newLoopback(bin, dir, w).run(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res.Failures)
	}
	for _, m := range compared() {
		v, ok := res.EndToEnd[m.Name]
		if !ok {
			v = res.PerLayer[m.Name]
		}
		if v.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", m.Name, v.Value)
		}
	}
	if err := tracePass(dir, w, res); err != nil {
		t.Fatal(err)
	}
	spanFile := filepath.Join(dir, "trace.json")
	if err := writeTraces(spanFile, []*result{res}); err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := res.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %s is missing", m.Name)
		}
	}
	if info, err := os.Stat(spanFile); err != nil || info.Size() == 0 {
		t.Errorf("no span file written: %v", err)
	}
}

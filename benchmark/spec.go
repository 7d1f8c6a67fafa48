package main

import (
	"encoding/json"
	"strings"
)

// The benchmark's contract in one place: workloads, end-to-end metrics
// with their regression bounds, and per-layer metrics. BENCHMARK.json
// at the repository root states the same lists; a test keeps the two
// equal.

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"ask", "Figure-2 loop: /v1/parse (top_k 7) then /v1/explain/batch of the candidates; 4608 distinct questions, so the parse cache misses. semparse and batch fan-out dominate. alt = the batch request."},
	{"explain_cold", "/v1/explain, four paper families, 9216 distinct queries over 96 web tables (9x the LRUs): every request walks decode to encode on the miss path. primary = tables over 40 rows, alt = the rest."},
	{"explain_hot", "Same endpoint, tables and families, 256 queries drawn Zipf(1.1): the set fits the result LRU, so this is HTTP decode + cache probe + JSON encode; a miss-path gain must leave it flat."},
	{"scan", "/v1/answer on one 131072-row table, every literal distinct: plan and table do the work. primary = full scans (mostly aggregates reading every row), alt = 1% ranges via zone maps and point ranges."},
	{"mutate", "Write side: lockstep PATCH/register/DELETE over 16 live tables, -checkpoint-bytes 131072, while the other connection explains the table just mutated. primary = PATCH (WAL to purge), alt = the read."},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	How    string
}

// The end-to-end metrics are the ones a run-to-run comparison can
// resolve on a shared 2-core sandbox. Every timing of the loopback pass
// — latency, server CPU per op, recovery — is measured and reported as
// the clock read it, but ungated, under client.* and server.* below:
// identical code on identical inputs reads 20 to 80 % apart (quartile
// distance over ten runs) because the machine's speed moves by up to a
// factor of two in phases of minutes, and a bound inside the machine's
// own spread rejects changes at random. Compare those with interleaved
// pairs of runs (-diff, -repeat). setup_s is a timing too, but the
// driver's contract requires it among these and says to give it the
// largest bound. README.md has the measurements.
var endToEnd = []metricSpec{
	{"rss_mb", "MB", "lower", 0.15, "median over the 5 servers of VmHWM once the server has completed a fixed number of ops of its share"},
	{"setup_s", "s", "lower", 0.25, "fastest of 5 fresh set-ups: server exec -> healthz ok -> corpus registered -> warm-up done; excludes go build"},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02, "data-dir bytes after a clean shutdown's checkpoint / CSV-equivalent bytes of the live tables"},
}

// compared is what -repeat and -diff tabulate: the end-to-end metrics
// against their bounds, then the loopback pass's timings, which carry
// none (Bound 0).
func compared() []metricSpec {
	layer := specByName(perLayer)
	out := append([]metricSpec(nil), endToEnd...)
	for _, name := range []string{"client.p50_ms", "client.alt_p50_ms", "server.cpu_ms_per_op", "client.recovery_s"} {
		out = append(out, layer[name])
	}
	return out
}

// perLayer metrics have no bound. How names the end-to-end metric and
// workload each one should move.
var perLayer = []metricSpec{
	{"server.rtt_floor_us", "us", "lower", 0, "healthz p50 over loopback; the floor under every client.p50_ms"},
	{"server.http_overhead_us", "us", "lower", 0, "loopback p50 - in-process engine p50 on the same ops -> client.p50_ms, server.cpu_ms_per_op on explain_hot, ask; ~nothing on scan"},
	{"server.encode_us", "us", "lower", 0, "JSON encode of the response value -> client.p50_ms on explain_hot, explain_cold, ask"},
	{"server.resp_bytes_per_op", "B", "lower", 0, "encoded response size -> client.p50_ms, server.cpu_ms_per_op on explain_*"},
	{"server.cpu_ms_per_op", "ms", "lower", 0, "median over the servers of utime+stime from /proc/<pid>/stat across the server's share of the window / ops of the stream it completed: the capacity cost of an op"},
	{"server.cpu_user_ms_per_op", "ms", "lower", 0, "user share of server.cpu_ms_per_op, over the whole window"},
	{"server.cpu_sys_ms_per_op", "ms", "lower", 0, "system share of server.cpu_ms_per_op; socket and fsync work"},
	{"engine.hit_ns", "ns", "lower", 0, "Engine.ExplainCached on a cached key -> client.p50_ms on explain_hot"},
	{"engine.hit_allocs_per_op", "count", "lower", 0, "-> server.cpu_ms_per_op on explain_hot"},
	{"engine.miss_us", "us", "lower", 0, "Engine call on an uncached key -> client.p50_ms on explain_cold, scan"},
	{"engine.miss_overhead_us", "us", "lower", 0, "engine.miss_us - sum of its stage spans: goroutine, channel and semaphore hand-off -> client.p50_ms on explain_cold, ask"},
	{"engine.miss_allocs_per_op", "count", "lower", 0, "-> server.cpu_ms_per_op on explain_cold, ask"},
	{"engine.miss_bytes_per_op", "B", "lower", 0, "-> server.cpu_ms_per_op, rss_mb on explain_cold, ask"},
	{"engine.batch_us_per_query", "us", "lower", 0, "ExplainBatch of 7 / 7 -> client.alt_p50_ms on ask"},
	{"engine.cache_hit_ratio", "ratio", "higher", 0, "result (or answer, or parse) cache hits / lookups during the window, from /metrics; workload validity"},
	{"engine.sheds", "count", "lower", 0, "requests shed during the window, from /metrics -> failed ops"},
	{"engine.timeouts", "count", "lower", 0, "requests timed out during the window, from /metrics -> failed ops"},
	{"dcs.parse_us", "us", "lower", 0, "dcs.Parse -> client.p50_ms on explain_cold, ask; not run on explain_hot"},
	{"dcs.compile_us", "us", "lower", 0, "dcs.Compile: check + lower + rewrite -> client.p50_ms on explain_cold, ask"},
	{"dcs.parse_allocs_per_op", "count", "lower", 0, "-> server.cpu_ms_per_op on explain_cold, ask"},
	{"dcs.compile_allocs_per_op", "count", "lower", 0, "-> server.cpu_ms_per_op on explain_cold, ask"},
	{"plan.exec_answer_us", "us", "lower", 0, "compiled plan under the Noop tracer -> client.p50_ms on scan"},
	{"plan.exec_traced_us", "us", "lower", 0, "compiled plan under the cell tracer -> client.p50_ms on explain_cold, ask"},
	{"plan.exec_allocs_per_op", "count", "lower", 0, "-> server.cpu_ms_per_op on explain_cold, scan"},
	{"plan.scan_mrows_per_s", "Mrows/s", "higher", 0, "rows / exec time over full-scan-class ops -> client.p50_ms on scan"},
	{"plan.scan_serial_mrows_per_s", "Mrows/s", "higher", 0, "the same with SetExecWorkers(1) -> server.cpu_ms_per_op on scan"},
	{"plan.morsels_skipped_ratio", "ratio", "higher", 0, "morsels skipped or bulk-filled / morsels consulted, over scan's Tick ranges -> client.alt_p50_ms on scan"},
	{"plan.zone_range_us", "us", "lower", 0, "one Tick range executed under the zone verdicts -> client.alt_p50_ms on scan"},
	{"provenance.highlight_self_us", "us", "lower", 0, "HighlightCompiledCtx - traced exec -> client.p50_ms on explain_cold, ask"},
	{"provenance.sample_us", "us", "lower", 0, "Section 5.3 sampling -> client.p50_ms on explain_cold (primary class only)"},
	{"provenance.cells_per_op", "count", "lower", 0, "marked cells per explanation; drives render and encode"},
	{"utterance.utter_us", "us", "lower", 0, "-> client.p50_ms on explain_cold, ask"},
	{"sqlgen.translate_us", "us", "lower", 0, "-> client.p50_ms on explain_cold, ask"},
	{"render.jsongrid_us", "us", "lower", 0, "-> client.p50_ms on explain_cold, ask"},
	{"render.grid_cells_per_op", "count", "lower", 0, "cells in the rendered grid -> server.resp_bytes_per_op"},
	{"export.build_us", "us", "lower", 0, "export.BuildCompiledCtx as one call -> client.p50_ms on explain_cold, ask"},
	{"export.stage_sum_ratio", "ratio", "lower", 0, "sum of the stage spans / export.build_us; the pass checks itself, 1 +- 0.05 expected"},
	{"semparse.parse_us", "us", "lower", 0, "Parser.ParseAll p50 -> client.p50_ms on ask only"},
	{"semparse.parse_p99_us", "us", "lower", 0, "-> tail of ask"},
	{"semparse.candidates_per_question", "count", "lower", 0, "candidates generated before top-k -> semparse.parse_us"},
	{"semparse.allocs_per_question", "count", "lower", 0, "-> server.cpu_ms_per_op on ask"},
	{"table.new_us_per_krow", "us", "lower", 0, "table.New on the workload's tables -> setup_s, client.recovery_s"},
	{"table.index_build_ms", "ms", "lower", 0, "first numeric-index and zone-map build over all columns -> setup_s on scan"},
	{"table.bytes_per_cell", "B", "lower", 0, "BaseBytes+DerivedBytes per cell -> rss_mb"},
	{"table.append_us", "us", "lower", 0, "Table.Append of 8 rows -> client.p50_ms on mutate"},
	{"store.snapshot_ns", "ns", "lower", 0, "Store.Get -> every read"},
	{"store.append_us", "us", "lower", 0, "in-memory Store.Append of 8 rows -> client.p50_ms on mutate"},
	{"store.append_durable_us", "us", "lower", 0, "durable Store.Append of 8 rows, default sync window -> client.p50_ms on mutate"},
	{"store.checkpoint_ms", "ms", "lower", 0, "Store.Checkpoint of the workload's tables -> client.alt_p50_ms on mutate"},
	{"store.open_ms", "ms", "lower", 0, "store.Open on a dir holding the workload's tables -> client.recovery_s"},
	{"wal.append_us", "us", "lower", 0, "WAL.Append of an 8-row record, synchronous -> client.p50_ms on mutate"},
	{"wal.syncs_per_append", "ratio", "lower", 0, "fsyncs / appends under the default group-commit window -> client.p50_ms on mutate"},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0, "log bytes / user bytes appended -> client.recovery_s on mutate"},
	{"wal.scan_mb_s", "MB/s", "higher", 0, "wal.Scan throughput -> client.recovery_s on mutate"},
	{"segment.write_mb_s", "MB/s", "higher", 0, "segment.Write of the workload's tables -> store.checkpoint_ms"},
	{"segment.read_mb_s", "MB/s", "higher", 0, "segment.Read -> client.recovery_s on scan"},
	{"segment.bytes_per_user_byte", "ratio", "lower", 0, "-> disk_bytes_per_user_byte"},
	{"client.p50_ms", "ms", "lower", 0, "median over the window's blocks of the block's median client-observed latency of the workload's primary class: what a user waits"},
	{"client.alt_p50_ms", "ms", "lower", 0, "the same for the workload's alt class (ask: batch request; explain_*: tables of 40 rows or fewer; scan: selective ranges; mutate: reads racing the writer)"},
	{"client.recovery_s", "s", "lower", 0, "median of the recoveries: exec on a copy of the SIGKILLed data dir (no CSV) -> healthz ok and every acked table back with the same rows and version"},
	{"client.ops_per_s", "1/s", "higher", 0, "wall-clock throughput of the window"},
	{"client.rows_per_s", "rows/s", "higher", 0, "table rows covered by full-scan-class ops per second of window (scan)"},
	{"client.p99_ms", "ms", "lower", 0, "primary-class p99 over the whole window"},
	{"client.max_ms", "ms", "lower", 0, "primary-class maximum"},
	{"client.samples", "count", "higher", 0, "primary-class latencies measured"},
	{"client.cpu_ms_per_op", "ms", "lower", 0, "the load generator's own CPU per op"},
	{"client.parse_p50_ms", "ms", "lower", 0, "ask: the /v1/parse request alone"},
	{"client.trace_overhead_ratio", "ratio", "lower", 0, "in-process replay with spans / without"},
}

func specByName(list []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(list))
	for _, s := range list {
		m[s.Name] = s
	}
	return m
}

// runSeconds is the window length BENCHMARK.json tells the driver to use.
const runSeconds = 15

// benchmarkJSON renders the contract as the repository root's
// BENCHMARK.json, one entry per line.
func benchmarkJSON() string {
	line := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of strings and numbers
		}
		return "    " + string(b)
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws, es, ls []string
	for _, w := range workloadSpecs {
		ws = append(ws, line(workload{w.Name, w.Why}))
	}
	for _, m := range endToEnd {
		es = append(es, line(bounded{m.Name, m.Unit, m.Better, m.Bound}))
	}
	for _, m := range perLayer {
		ls = append(ls, line(unbounded{m.Name, m.Unit, m.Better}))
	}
	section := func(name string, lines []string) string {
		return "  \"" + name + "\": [\n" + strings.Join(lines, ",\n") + "\n  ]"
	}
	return "{\n" +
		"  \"command\": [\"bash\", \"benchmark/run.sh\"],\n" +
		"  \"paths\": [\"benchmark\"],\n" +
		"  \"run_seconds\": " + line(runSeconds)[4:] + ",\n" +
		section("workloads", ws) + ",\n" +
		section("end_to_end", es) + ",\n" +
		section("per_layer", ls) + "\n}"
}

# CI and humans invoke the same targets: .github/workflows/ci.yml runs
# build, vet, fmt, cover, bench, bench-compile, the stress shards and
# the fuzz targets through this file. Speed is measured by
# benchmark/run.sh (BENCHMARK.json), not here. Size is `make lines`:
# non-test Go lines, and the lines the shipped binaries link (the CI
# build job prints it, and gates nothing on it).

GO ?= go

# COVERAGE_FLOOR is the minimum total statement coverage (percent)
# `make cover` accepts; CI fails below it. Raise it as coverage grows,
# never lower it to make a PR pass.
COVERAGE_FLOOR = 65

.PHONY: all build test parse-footprint vet fmt cover bench bench-compile metrics-lint lines store-stress bigtable-stress crash-stress fault-stress fuzz fuzz-wal fuzz-plan fuzz-table fuzz-segment fuzz-provenance fuzz-export fuzz-server serve ci

all: build

build:
	$(GO) build ./...

test: parse-footprint
	$(GO) test -race ./...

# parse-footprint runs the engine's gates that do not read the clock:
# on the NL-parse path, live heap per published parse-cache entry (the
# top 7 ranks), what a top_k of 1 000 leaves behind (no entry), and
# allocations per parsed question, over the corpus semparse's golden
# hashes pin; on the explain path, allocations and bytes per cache miss
# for each of the benchmark's four query families and, beside an
# answer miss, for three queries on the 131072-row fixture, and live
# heap per cached explanation on a 120-row web table, on its first 30
# rows and on that fixture (whose grids are views of the table, so an
# entry weighs its levels and strings), and per cached explanation and
# answer of the fixture's wide R[Seq].Tick>=k family; on
# the HTTP layer, allocations per cached /v1/explain and
# /v1/explain/batch request through the server's mux, and the largest
# single write of a ~440 KB batch response, which must stay within the
# server's flush threshold plus the batch's largest item (a count of
# bytes, which the race detector does not move). The others are
# measurements, which the race detector distorts (those tests skip
# themselves under it), so test and cover, both -race, run them first
# without it.
parse-footprint:
	$(GO) test -run 'TestParseHeapPerQuestion|TestParseAllocsPerQuestion|TestExplainMissAllocs|TestExplainMissBigTable|TestCachedExplanationBytes' -count=1 ./internal/engine/
	$(GO) test -run 'TestExplainHandlerAllocs|TestBatchWriteBound' -count=1 ./cmd/wtq-server/

# TEST_ONLY are the packages only _test.go files may import: the
# reference interpreter (internal/oracle), the random query and table
# generator (internal/qrand) and the filesystem fault injector
# (internal/fault). vet fails if a command, an example or the library
# links one, and keeps mini-SQL off the plan core, which serves lambda
# DCS alone. SERVER_NEVER are the packages wtq-server must not link:
# the library facade (the root package), whose names alias
# internal/engine's, and the SQL interpreter (internal/minisql), which
# only checks what the server shows as text (internal/sqlast). The
# plan core looks values up as values: table.RowsFor renders a canonical
# key on the stack, so vet fails when non-test internal/plan code calls
# .Key(), which builds a key string per lookup (the waste the plan once
# hid behind memos in its nodes). Table.ZoneSnapshot, segment.Write's
# rows and zones and segment.Read's rows and zones stay only because
# benchmark/trace.go, a module of its own, compiles against them: zone
# maps live in memory (ColumnZones) and a segment is written and read as
# a table (WriteTable / ReadTable), one way each (ROADMAP items 2 and
# 4), so vet fails when non-test code outside benchmark/ calls them.
TEST_ONLY = internal/oracle internal/qrand internal/fault
SERVER_NEVER = nlexplain nlexplain/internal/minisql

vet:
	$(GO) vet ./...
	@for p in $(TEST_ONLY); do \
		if $(GO) list -deps . ./cmd/... ./examples/... | grep -x nlexplain/$$p; then echo "a shipped package links $$p, which only tests may import"; exit 1; fi; \
	done
	@for p in $(SERVER_NEVER); do \
		if $(GO) list -deps ./cmd/wtq-server | grep -x $$p; then echo "wtq-server links $$p, which it never calls"; exit 1; fi; \
	done
	@if $(GO) list -deps ./internal/minisql | grep -x nlexplain/internal/plan; then echo "internal/minisql links the plan core"; exit 1; fi
	@if grep -n '\.Key()' $$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./internal/plan); then echo "internal/plan builds key strings; look values up with table.RowsFor"; exit 1; fi
	@if grep -nE '\.ZoneSnapshot\(|\bsegment\.(Write|Read)\(' $$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./...); then echo "shipped code calls an adapter kept for benchmark/trace.go; use ColumnZones, segment.WriteTable or segment.ReadTable"; exit 1; fi

# fmt fails when any file needs reformatting (including -s
# simplifications), listing the offenders.
fmt:
	@out=$$(gofmt -s -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# cover writes coverage.out (uploaded as a CI artifact) and enforces
# the COVERAGE_FLOOR on total statement coverage. It runs under the
# race detector, so `make ci` gets race checking and coverage from one
# test-suite execution instead of two.
cover: parse-footprint
	$(GO) test -race -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVERAGE_FLOOR)% floor"; exit 1; }

# bench smoke-runs every benchmark once; -benchtime=1x keeps it cheap
# enough for CI while still executing each pipeline end to end, and
# -benchmem records B/op + allocs/op for every benchmark (the
# allocation columns of BenchmarkPlanExec/BenchmarkExecSQL/
# BenchmarkStoreSnapshot are the hot-path budget). The morsel-executor
# benchmarks then rerun at -cpu 1,4 so the serial-vs-parallel cost of
# the plan kernels is on record for both a starved and a multicore
# box. The output lands in bench.out (gitignored) so CI can upload it
# as an artifact and the perf trajectory stays recorded.
bench:
	@$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./... > bench.out 2>&1 || { cat bench.out; exit 1; }
	@$(GO) test -run='^$$' -bench='BenchmarkBigTable' -benchtime=1x -benchmem -cpu 1,4 ./internal/plan/ >> bench.out 2>&1 || { cat bench.out; exit 1; }
	@cat bench.out
	@echo "benchstat-friendly output written to $$(pwd)/bench.out"

# bench-compile vets and short-tests the repo benchmark, a module of
# its own (benchmark/go.mod, replace ../) that `go build ./...` and
# `go test ./...` never descend into: it compiles against internal/,
# so a refactor that breaks the names it imports fails here instead of
# at the benchmark gate.
bench-compile:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test -short .

# store-stress reruns the versioned-store concurrency suite (snapshot
# isolation, churn, eviction) plus the zone-map property tests and the
# segment footer round-trips under the race detector, twice, exactly
# as its row of the CI stress matrix does. The second line reruns the
# engine's call-path contract 500 times: one key computes once while
# its value stays cached (the probe and the join are one critical
# section), and shed, slot-wait and follower-retake hold on every
# interleaving the detector's scheduler finds.
store-stress:
	$(GO) test -race -run 'Store|Zone|Segment' -count=2 ./internal/store/... ./internal/engine/... ./internal/table/... ./internal/segment/...
	$(GO) test -race -count=500 -run 'TestExplainBatchConcurrent|TestCallPathContract|TestLoadShedding' ./internal/engine/

# bigtable-stress is the data-race gate for the morsel driver: the
# forced-parallel differential suites, ranges and superlatives over
# every shape of a column's typed readings (the sorted index and the
# float scan under zone verdicts), the NaN/tie and cancellation tests, the worker-count-flip hammer (executions under the default
# executor racing SetExecWorkers), the executor counter pins, the zone
# layer's tests, the engine-level hammer (8 query goroutines racing a
# store mutator over a pinned snapshot) and the engine executor tests
# (one engine's counts, two engines' separation) all rerun under the
# race detector. So does the table build's column fan-out, whose tests
# set GOMAXPROCS 4 so that it forks on any runner: the fan-out itself,
# New, FromCSV and Append filled side by side against one after the
# other, segment decode's columns and the error it reports, and one
# relation through every way into memory at the sizes around a batch
# (table.BatchRows, 8192) and a morsel of records; and so do the first
# KB lookups of a fresh 131072-row table racing each other, before and
# after its postings, built on a column's first lookup, are dropped.
# The last line is the big table's footprint, measured and so run
# without the detector: live heap per cell of a 131072 x 6 table, with
# and without a NaN in Tick, which postings built with the table, a
# second key dictionary, a second copy of the cells in any form or
# 64-bit row ids do not fit under, and of the same table read from CSV
# at 100000 records, where room grown into and never filled would show; the
# bytes FromCSV allocates reading it, and the bytes building each of
# its sorted numeric indexes allocates (the index and one more row
# vector of scratch); the byte estimate the store's
# -store-budget eviction trusts, held to that measured heap for the
# big table and for web tables, the bytes a durable registration
# of the big table allocates on the way to the log, and the bytes its
# register record and its segment file take per byte of it as CSV.
bigtable-stress:
	$(GO) test -race -run 'BigTable|TestExecCountersPinned|TestZone|TestEngineExecCounts|TestEnginesDoNotShareExecutor' -count=1 ./internal/plan/... ./internal/engine/...
	$(GO) test -race -run 'TestPlanDifferentialParallel|TestRangeOverMixedColumns' -count=1 ./internal/dcs/...
	$(GO) test -race -run 'TestFillColumns|TestConcurrentFirstLookups|TestParallelBuildMatchesSerial|TestDecodeTableColumnsInParallel|TestTableRepresentationAcrossChunks|TestFromCSVErrorAcrossChunks' -count=1 ./internal/table/ ./internal/segment/ ./internal/store/
	$(GO) test -run 'TestTableHeapPerCell|TestFromCSVAllocBytes|TestNumericIndexAllocBytes|TestBaseBytesTracksHeap|TestRegisterAllocBytes|TestSegmentBytesPerUserByte' -count=1 ./internal/table/ ./internal/store/

# crash-stress is the durability gate: a real wtq-server (built -race)
# is SIGKILLed mid-churn in a loop, restarted on the same data
# directory, and every acknowledged mutation is checked to have
# survived with its content-hash version and generation intact. Set
# WTQ_CRASH_DIR to keep the data directory (CI uploads it as an
# artifact when the gate fails) and WTQ_CRASH_ITERS to change the kill
# count.
crash-stress:
	WTQ_CRASH=1 $(GO) test -race -run TestCrashRecovery -count=1 -timeout 10m -v ./cmd/wtq-server/

# fault-stress is the degraded-mode gate: the engine's seeded chaos
# episodes (internal/engine/chaos_test.go; 50 cycles x -count=2 = 100
# fault/recovery episodes under the race detector), the store's degraded-lifecycle suite, the HTTP 503
# envelope test, the WAL/segment fault-schedule tests, the WAL commit
# contract on a gated fsync (TestWALFault{FollowersShareOneSync,
# FailedSyncFailsItsBatch,LoneAppenderSyncsEveryAppend}) and the
# store.wal.* counters' monotonicity across a log rotation. Every
# episode must lose zero acked mutations, fail fast while degraded,
# and recover in bound. Set WTQ_CHAOS_CYCLES to change the episode
# count.
fault-stress:
	WTQ_CHAOS_CYCLES=$${WTQ_CHAOS_CYCLES:-50} $(GO) test -race -count=2 -timeout 10m \
		-run 'TestChaos|TestStoreDegraded|TestStoreClose|TestStoreWALCounters|TestServerDegraded|TestWALFault|TestWALTorn|TestWALLying|TestSegmentWriteFault|TestManifestTorn' \
		./internal/engine/ ./internal/store/ ./internal/wal/ ./internal/segment/ ./cmd/wtq-server/

# fuzz-wal runs the WAL replay fuzzer for a bounded window: any input
# must either recover (torn tails truncated) or be rejected as corrupt
# — never panic, never mis-parse. The seed corpus plus 30s of mutation
# is cheap enough for every CI run; run with a longer -fuzztime
# locally when touching the framing code.
fuzz-wal:
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal/

# fuzz-plan runs the plan-vs-reference differential fuzzer for a
# bounded window: any parseable query must denote the same answer and
# witness cells on the plan path (dcs.Execute) as on the reference
# interpreter (internal/oracle, which only tests link), or fail with the
# same error text, with zone-map consultation forced.
fuzz-plan:
	$(GO) test -run '^$$' -fuzz FuzzPlanDifferential -fuzztime 30s ./internal/dcs/

# fuzz-table runs the cell-typing differential fuzzer for a bounded
# window: ParseValue skips the number and date parsers on text that
# cannot be either, and must still type every input exactly as the
# reference that tries them all (CSV / JSON ingest); and a one-cell
# column built from the input, which reads plain integers without
# ParseValue, must read back ParseValue's value and key, and RowsFor
# must find its one cell for exactly the values sharing that key.
fuzz-table:
	$(GO) test -run '^$$' -fuzz FuzzParseValue -fuzztime 30s ./internal/table/

# fuzz-segment runs the segment decoder fuzzer for a bounded window:
# segment restore and WAL register replay build tables straight from
# segment bodies, so any body a checksum lets through must come back as
# a table or as ErrCorrupt —
# never a panic, never an allocation out of proportion to its length.
# The target reads the allocator's counters around every decode, which
# makes minimising a find slow; that is capped so the window goes to
# new inputs. The second line fuzzes the MANIFEST loader, the recovery
# root: any bytes load as a manifest or fail as ErrCorrupt, and a
# manifest it accepts comes back the same through a rewrite.
fuzz-segment:
	$(GO) test -run '^$$' -fuzz FuzzSegmentRead -fuzztime 30s -fuzzminimizetime 5s ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzLoadManifest -fuzztime 30s ./internal/segment/

# fuzz-provenance runs the highlighting fuzzer for a bounded window:
# any query text that parses has an utterance, and either fails with an
# error or is highlighted into levels that are strictly ascending,
# nested PO ⊆ PE ⊆ PC and in agreement with every cell's marking.
fuzz-provenance:
	$(GO) test -run '^$$' -fuzz FuzzHighlight -fuzztime 30s ./internal/provenance/

# fuzz-export runs the explanation encoder's two fuzzers for a bounded
# window each: for any bytes, the string the hand-written encoder
# appends must equal json.Marshal's, so /v1/explain's bytes stay
# encoding/json's without its reflection; and for a random query over a
# random table (some over the 40-row sampling threshold, some with a
# hostile cell), the grid a cached document writes from its view of the
# table must equal json.MarshalIndent of render.JSONGrid, which holds
# the cells.
fuzz-export:
	$(GO) test -run '^$$' -fuzz FuzzAppendString -fuzztime 30s ./internal/export/
	$(GO) test -run '^$$' -fuzz FuzzGridView -fuzztime 30s ./internal/export/

# fuzz-server runs the HTTP request-body fuzzer for a bounded window:
# any body, sent to every POST endpoint of a server holding the demo
# table, gets a 2xx with a JSON body or a 4xx error envelope with a
# known code — never a 5xx, never a panic.
fuzz-server:
	$(GO) test -run '^$$' -fuzz FuzzRequestBodies -fuzztime 30s ./cmd/wtq-server/

# fuzz is every time-boxed fuzz target in turn, as the CI fuzz job
# runs them.
fuzz: fuzz-wal fuzz-plan fuzz-table fuzz-segment fuzz-provenance fuzz-export fuzz-server

# metrics-lint verifies the metric namespace: every registered series
# name well-formed, collision-free and matching the canonical list in
# internal/metric/registry_test.go. Registration panics make collisions
# a wiring-time failure; this target makes them a reviewable diff. CI
# has no job for it: `make cover` in the build job runs the same test.
metrics-lint:
	$(GO) test -run TestRegistryNames -count=1 ./internal/metric/

# lines prints the repository's size two ways: every non-test Go line
# outside benchmark/ (what `find` sees), and the non-test lines of the
# module's packages a build links (`go list -deps`), for wtq-server
# alone and for every command, example and the library together. The
# gap between the two is code in production packages only tests reach.
lines:
	@echo "non-test Go lines: $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@for pkgs in ./cmd/wtq-server "./cmd/... ./examples/... ."; do \
		n=$$($(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' $$pkgs | sort -u | xargs cat | wc -l); \
		echo "linked by $$pkgs: $$n"; \
	done

serve:
	$(GO) run ./cmd/wtq-server -demo

ci: build vet fmt cover bench bench-compile bigtable-stress

package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"nlexplain/internal/segment"
	"nlexplain/internal/vfs"
	"nlexplain/internal/wal"
)

// openDurable opens a durable store with every automatic checkpoint
// trigger disabled, so tests control exactly when the log compacts.
func openDurable(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(Options{}, DurableOptions{
		Dir:                dir,
		CheckpointInterval: -1,
		CheckpointBytes:    -1,
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// tableState captures what recovery must reproduce for one table.
type tableState struct {
	gen     uint64
	version string
	rows    int
}

func captureState(st *Store) map[string]tableState {
	out := make(map[string]tableState)
	for _, s := range st.Snapshots() {
		out[s.Table().Name()] = tableState{gen: s.Gen(), version: s.Version(), rows: s.Table().NumRows()}
	}
	return out
}

func checkRecovered(t *testing.T, st *Store, want map[string]tableState) {
	t.Helper()
	if st.Len() != len(want) {
		t.Fatalf("recovered %d tables, want %d", st.Len(), len(want))
	}
	for name, ws := range want {
		s, ok := st.Get(name)
		if !ok {
			t.Fatalf("table %q not recovered", name)
		}
		if s.Gen() != ws.gen || s.Version() != ws.version || s.Table().NumRows() != ws.rows {
			t.Fatalf("table %q recovered as (gen %d, %s, %d rows), want (gen %d, %s, %d rows)",
				name, s.Gen(), s.Version(), s.Table().NumRows(), ws.gen, ws.version, ws.rows)
		}
	}
}

func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("a", [][]string{{"nation9", "2024", "99"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "c", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("b"); err != nil || !ok {
		t.Fatalf("Drop(b) = %v, %v", ok, err)
	}
	want := captureState(st)
	wantGen := uint64(series(t, st, "store.generation"))
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
	if g := uint64(series(t, st2, "store.generation")); g < wantGen {
		t.Fatalf("recovered generation %d regressed below %d", g, wantGen)
	}
	// Post-recovery mutations must continue strictly past everything
	// recovered.
	snap, err := st2.Register(mustTable(t, "d", 1))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gen() <= wantGen {
		t.Fatalf("post-recovery generation %d not past recovered %d", snap.Gen(), wantGen)
	}
}

func TestDurableCrashReplayWALOnly(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("a", [][]string{{"nation1", "2028", "7"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "gone", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("gone"); err != nil || !ok {
		t.Fatalf("Drop(gone) = %v, %v", ok, err)
	}
	want := captureState(st)
	// No Close: recovery must come entirely from WAL replay.
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
	if n := st2.dur.replayedRecords.Load(); n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
}

func TestDurableCheckpointPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "base", 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "doomed", 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Tail mutations after the checkpoint: replayed from the WAL over
	// the restored segments, gen-gated.
	if _, err := st.Append("base", [][]string{{"nation2", "2032", "11"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("doomed"); err != nil || !ok {
		t.Fatalf("Drop(doomed) = %v, %v", ok, err)
	}
	if _, err := st.Register(mustTable(t, "late", 3)); err != nil {
		t.Fatal(err)
	}
	want := captureState(st)
	// Crash: no Close.
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
}

// activeWAL returns the highest-sequence wal file in dir.
func activeWAL(t *testing.T, dir string) string {
	t.Helper()
	var logs []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			logs = append(logs, e.Name())
		}
	}
	if len(logs) == 0 {
		t.Fatal("no wal files")
	}
	sort.Strings(logs)
	return filepath.Join(dir, logs[len(logs)-1])
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "kept", 4)); err != nil {
		t.Fatal(err)
	}
	kept, _ := st.Get("kept")
	if _, err := st.Register(mustTable(t, "torn", 3)); err != nil {
		t.Fatal(err)
	}
	// Crash, then shear the final record: recovery must truncate it and
	// keep everything before.
	path := activeWAL(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("recovered %d tables, want 1", st2.Len())
	}
	s, ok := st2.Get("kept")
	if !ok || s.Gen() != kept.Gen() || s.Version() != kept.Version() {
		t.Fatalf("kept table not recovered intact: %v %v", s, ok)
	}
	if n := st2.dur.truncatedBytes.Load(); n == 0 {
		t.Fatal("truncated bytes not counted")
	}
	// The log must be appendable again after truncation.
	if _, err := st2.Register(mustTable(t, "after", 2)); err != nil {
		t.Fatalf("mutation after torn-tail recovery: %v", err)
	}
}

// TestReplaySkipsCompactedRegister: a register record whose generation
// the restored segments already hold replays as a no-op — the table
// recovers as its segment holds it, content hash included, not as the
// older record spells it — and replay goes on to the records after it.
func TestReplaySkipsCompactedRegister(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	defer st.Close()
	if _, err := st.Register(mustTable(t, "t", 4)); err != nil {
		t.Fatal(err)
	}
	registered, err := os.ReadFile(activeWAL(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("t", [][]string{{"nation5", "2040", "9"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "u", 2)); err != nil {
		t.Fatal(err)
	}
	want := captureState(st)

	// Crash: copy the directory without Close, then put the saved
	// register record back at the head of the active log.
	crashed := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	active := activeWAL(t, crashed)
	tail, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(active, append(registered, tail...), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openDurable(t, crashed)
	defer st2.Close()
	checkRecovered(t, st2, want)
	if n := st2.dur.replayedRecords.Load(); n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	man, ok, err := segment.LoadManifest(nil, crashed)
	if err != nil || !ok || len(man.Tables) != 1 {
		t.Fatalf("LoadManifest: %+v %v %v", man, ok, err)
	}
	meta, seg, err := segment.ReadTable(nil, filepath.Join(crashed, man.Tables[0].File))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := st2.Get("t")
	if got.Gen() != meta.Gen || got.Version() != meta.Version {
		t.Fatalf("t recovered as (gen %d, %s), its segment holds (gen %d, %s)", got.Gen(), got.Version(), meta.Gen, meta.Version)
	}
	assertSameRelation(t, "t after a compacted register record", got.Table(), seg)
}

// TestReplayRefusesUnknownRegisterTag: a log holding a record under
// 0x01, the retired row-major register tag, fails recovery naming the
// tag instead of being read as something else.
func TestReplayRefusesUnknownRegisterTag(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.OpenFS(nil, filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0x01, []byte("\x01t\x01\x0200")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{}, DurableOptions{Dir: dir, CheckpointInterval: -1, CheckpointBytes: -1})
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "unknown wal record tag 0x01") {
		t.Fatalf("Open over a 0x01 record: err = %v, want wal.ErrCorrupt naming tag 0x01", err)
	}
}

func TestDurableMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 4)); err != nil {
		t.Fatal(err)
	}
	path := activeWAL(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the first record: the CRC mismatch is
	// not at end-of-file, so this is damage, not a torn tail.
	data[12] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{}, DurableOptions{Dir: dir, CheckpointInterval: -1, CheckpointBytes: -1}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	} else if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open error %v, want wal.ErrCorrupt", err)
	}
}

func TestDurableSegmentCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no segment file after Close")
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{}, DurableOptions{Dir: dir, CheckpointInterval: -1, CheckpointBytes: -1}); err == nil {
		t.Fatal("Open succeeded over a corrupt segment")
	} else if !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("Open error %v, want segment.ErrCorrupt", err)
	}
}

func TestDurableMutationAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 2)); !errors.Is(err, ErrDurability) {
		t.Fatalf("Register after Close: err = %v, want ErrDurability", err)
	}
	if _, err := st.Append("a", [][]string{{"x", "1", "2"}}); !errors.Is(err, ErrDurability) {
		t.Fatalf("Append after Close: err = %v, want ErrDurability", err)
	}
	if _, _, err := st.Drop("a"); !errors.Is(err, ErrDurability) {
		t.Fatalf("Drop after Close: err = %v, want ErrDurability", err)
	}
}

func TestDurableCheckpointReusesAndGCs(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	defer st.Close()
	if _, err := st.Register(mustTable(t, "hot", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "cold", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter := func() map[string]bool {
		out := make(map[string]bool)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		nwal := 0
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".seg") {
				out[e.Name()] = true
			}
			if strings.HasSuffix(e.Name(), ".log") {
				nwal++
			}
		}
		if nwal != 1 {
			t.Fatalf("%d wal files after checkpoint, want 1 (compacted logs not GC'd)", nwal)
		}
		return out
	}
	first := segsAfter()
	if len(first) != 2 {
		t.Fatalf("%d segments after first checkpoint, want 2", len(first))
	}
	man1, ok, err := segment.LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: %v %v", ok, err)
	}
	coldFile := ""
	for _, ref := range man1.Tables {
		if ref.Name == "cold" {
			coldFile = ref.File
		}
	}

	// Mutate only "hot": the next checkpoint must rewrite hot's
	// segment, reuse cold's file untouched, and GC hot's old one.
	if _, err := st.Append("hot", [][]string{{"nation3", "2036", "5"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := segsAfter()
	if len(second) != 2 {
		t.Fatalf("%d segments after second checkpoint, want 2", len(second))
	}
	if !second[coldFile] {
		t.Fatalf("unchanged table's segment %s was rewritten", coldFile)
	}
	man2, ok, err := segment.LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: %v %v", ok, err)
	}
	if man2.WALSeq != man1.WALSeq+1 {
		t.Fatalf("manifest WALSeq %d after second checkpoint, want %d", man2.WALSeq, man1.WALSeq+1)
	}
	for _, ref := range man2.Tables {
		if ref.Name == "cold" && ref.File != coldFile {
			t.Fatalf("cold's manifest entry moved to %s, want reuse of %s", ref.File, coldFile)
		}
	}
}

// TestRecoverySweepsTempFiles plants what a process killed inside an
// atomic write leaves behind — a segment's and the manifest's temp
// files, with content — plus one file recovery does not own. Recovery
// removes the temp files, keeps the other, and brings back the same
// relation at the same version.
func TestRecoverySweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("a", [][]string{{"nation9", "2024", "99"}}); err != nil {
		t.Fatal(err)
	}
	rowsOf := func(st *Store) [][]string {
		s, ok := st.Get("a")
		if !ok {
			t.Fatal(`table "a" missing`)
		}
		return s.Table().RawRows()
	}
	want, wantRows := captureState(st), rowsOf(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	temps := []string{"seg-00000000000002bd.seg.tmp1234567", segment.ManifestName + ".tmp89"}
	keep := "notes.tmp"
	for _, name := range append(temps, keep) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left by a crash"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st = openDurable(t, dir)
	defer st.Close()
	checkRecovered(t, st, want)
	if got := rowsOf(st); !slices.EqualFunc(got, wantRows, slices.Equal) {
		t.Fatalf("recovered rows %v, want %v", got, wantRows)
	}
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("temp file %s survived recovery (stat: %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
		t.Errorf("recovery removed %s, which no atomic write makes: %v", keep, err)
	}
}

func TestDurableStoreGenerationPersistsAcrossEmptyCatalog(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(mustTable(t, "a", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Drop("a"); err != nil || !ok {
		t.Fatalf("Drop = %v, %v", ok, err)
	}
	gen := uint64(series(t, st, "store.generation"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	if st2.Len() != 0 {
		t.Fatalf("recovered %d tables, want 0", st2.Len())
	}
	snap, err := st2.Register(mustTable(t, "b", 2))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gen() <= gen {
		t.Fatalf("generation %d reused after restart of an empty catalog (last was %d)", snap.Gen(), gen)
	}
}

// walGoroutines returns the stacks of every goroutine running or
// created by internal/wal code.
func walGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "nlexplain/internal/wal.") {
			out = append(out, g)
		}
	}
	return out
}

// TestDurableStoreOwnsNoWALGoroutine: with the zero-value options the
// log commits on its appenders' goroutines — none of its own while the
// store is open and idle, none left behind by the rotation in Close.
func TestDurableStoreOwnsNoWALGoroutine(t *testing.T) {
	st, err := Open(Options{}, DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "a", 3)); err != nil {
		t.Fatal(err)
	}
	if gs := walGoroutines(); len(gs) != 0 {
		t.Errorf("open, idle store has %d wal goroutines:\n%s", len(gs), strings.Join(gs, "\n\n"))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if gs := walGoroutines(); len(gs) != 0 {
		t.Errorf("closed store left %d wal goroutines:\n%s", len(gs), strings.Join(gs, "\n\n"))
	}
}

// parkCloseFS parks the first Close of a wal-*.log file — the sealed
// log's, during a rotation — until gate is closed.
type parkCloseFS struct {
	vfs.FS
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (p *parkCloseFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return &parkCloseFile{File: f, fs: p}, nil
}

type parkCloseFile struct {
	vfs.File
	fs *parkCloseFS
}

func (f *parkCloseFile) Close() error {
	f.fs.once.Do(func() {
		close(f.fs.entered)
		<-f.fs.gate
	})
	return f.File.Close()
}

// TestStoreWALCountersMonotoneAcrossRotation: a scrape that lands
// between a rotation publishing the new log and the sealed log's file
// closing must not read any store.wal.* counter lower than the scrape
// before it.
func TestStoreWALCountersMonotoneAcrossRotation(t *testing.T) {
	fs := &parkCloseFS{FS: vfs.OS, entered: make(chan struct{}), gate: make(chan struct{})}
	st, err := Open(Options{}, DurableOptions{Dir: t.TempDir(), CheckpointInterval: -1, CheckpointBytes: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := st.Register(mustTable(t, name, 4)); err != nil {
			t.Fatal(err)
		}
	}
	counters := []string{"store.wal.appends", "store.wal.appended.bytes", "store.wal.syncs",
		"store.wal.replayed.records", "store.wal.truncated.bytes"}
	before := make(map[string]int64)
	for _, name := range counters {
		before[name] = series(t, st, name)
	}
	if before["store.wal.appends"] != 3 || before["store.wal.syncs"] != 3 || before["store.wal.appended.bytes"] == 0 {
		t.Fatalf("three registrations read as %v", before)
	}
	checkMonotone := func(when string) {
		t.Helper()
		for _, name := range counters {
			if got := series(t, st, name); got < before[name] {
				t.Errorf("%s went backwards %s the rotation: %d, then %d", name, when, before[name], got)
			}
		}
	}

	done := make(chan error, 1)
	go func() { done <- st.Checkpoint() }()
	<-fs.entered // the new log is published, the sealed one not yet closed
	checkMonotone("across")
	close(fs.gate)
	if err := <-done; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	checkMonotone("after")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

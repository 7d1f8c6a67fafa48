package segment

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"nlexplain/internal/fault"
	"nlexplain/internal/table"
	"nlexplain/internal/vfs"
)

// TestSegmentWriteFaultLeavesNoPartial: a segment write that dies
// mid-stream (ENOSPC, torn) surfaces the error and leaves nothing at
// the final path — the tmp + rename protocol means readers can never
// observe a half-written segment.
func TestSegmentWriteFaultLeavesNoPartial(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule *fault.Rule
	}{
		{"write:err=ENOSPC", &fault.Rule{Op: fault.OpWrite, Err: syscall.ENOSPC}},
		{"write:err=ENOSPC:short", &fault.Rule{Op: fault.OpWrite, Err: syscall.ENOSPC, ShortWrite: true}},
		{"sync:err=EIO", &fault.Rule{Op: fault.OpSync, Err: syscall.EIO}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := fault.NewInject(vfs.OS, 1, tc.rule)
			path := filepath.Join(dir, "seg-001.seg")
			tb := table.MustNew(testMeta.Name, testMeta.Columns, testRows)
			err := WriteTable(fs, path, testMeta, tb)
			if !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, syscall.EIO) {
				t.Fatalf("faulted write err = %v, want the injected errno", err)
			}
			if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("partial segment visible at %s after faulted write", path)
			}
			entries, derr := os.ReadDir(dir)
			if derr != nil {
				t.Fatal(derr)
			}
			if len(entries) != 0 {
				t.Fatalf("faulted write left %d stray files (first: %s)", len(entries), entries[0].Name())
			}
			// The one-shot rule is exhausted: a retry on the same injector
			// succeeds and reads back intact.
			if err := WriteTable(fs, path, testMeta, tb); err != nil {
				t.Fatalf("retry after one-shot fault: %v", err)
			}
			_, got, rerr := ReadTable(fs, path)
			if rerr != nil || got.NumRows() != len(testRows) {
				t.Fatalf("retried segment: err=%v", rerr)
			}
		})
	}
}

// TestManifestTornRenameKeepsPrevious is the crash-consistency pin for
// checkpointing: when the rename installing a new MANIFEST fails, the
// previous manifest must still load — the store can keep serving the
// old checkpoint and retry later.
func TestManifestTornRenameKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	prev := &Manifest{Gen: 7, WALSeq: 3, Tables: []TableRef{
		{Name: "olympics", File: "seg-0000000000000007-0000.seg", Gen: 7, Version: "aa", Rows: 4, Cols: 3},
	}}
	if err := WriteManifest(nil, dir, prev); err != nil {
		t.Fatal(err)
	}

	fs := fault.NewInject(vfs.OS, 1,
		&fault.Rule{Op: fault.OpRename, Path: ManifestName, Count: fault.Sticky, Err: syscall.EIO})
	next := &Manifest{Gen: 8, WALSeq: 9}
	if err := WriteManifest(fs, dir, next); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn rename err = %v, want EIO", err)
	}

	got, ok, err := LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("previous manifest unreadable after torn rename: %v %v", ok, err)
	}
	if got.Gen != 7 || got.WALSeq != 3 || len(got.Tables) != 1 {
		t.Fatalf("previous manifest damaged: %+v", got)
	}
	// No stray tmp files: the failed install cleaned up after itself.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != ManifestName {
		t.Fatalf("torn rename left strays: %v", entries)
	}

	// Heal: the retried install replaces atomically.
	fs.Heal()
	if err := WriteManifest(fs, dir, next); err != nil {
		t.Fatalf("healed install: %v", err)
	}
	got, _, err = LoadManifest(nil, dir)
	if err != nil || got.Gen != 8 || got.WALSeq != 9 {
		t.Fatalf("healed manifest: %+v %v", got, err)
	}
}

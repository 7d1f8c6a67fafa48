package vfs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	if err := OS.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	path := filepath.Join(dir, "a", "b", "f.txt")
	f, err := OS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	buf := make([]byte, 8)
	n, _ := f.Read(buf)
	if string(buf[:n]) != "hell" {
		t.Fatalf("Read = %q, want %q", buf[:n], "hell")
	}
	if f.Name() != path {
		t.Fatalf("Name = %q, want %q", f.Name(), path)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if data, err := OS.ReadFile(path); err != nil || string(data) != "hell" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if _, err := OS.Stat(path); err != nil {
		t.Fatalf("Stat: %v", err)
	}
	dst := filepath.Join(dir, "a", "b", "g.txt")
	if err := OS.Rename(path, dst); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := OS.SyncDir(filepath.Join(dir, "a", "b")); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	ents, err := OS.ReadDir(filepath.Join(dir, "a", "b"))
	if err != nil || len(ents) != 1 || ents[0].Name() != "g.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Remove(dst); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	tmp, err := OS.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	tmp.Close()
	os.Remove(tmp.Name())
	if Or(nil) != OS {
		t.Fatal("Or(nil) != OS")
	}
}

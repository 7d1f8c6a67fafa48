package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nlexplain/internal/vfs"
)

// ManifestName is the manifest's filename inside a data directory.
const ManifestName = "MANIFEST"

const schemaManifest = 1

// TableRef names one live segment file and the snapshot identity it
// must decode to; recovery re-verifies both.
type TableRef struct {
	Name    string `json:"name"`
	File    string `json:"file"` // relative to the data dir
	Gen     uint64 `json:"gen"`
	Version string `json:"version"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
}

// Manifest is the durable catalog of a checkpoint: the store
// generation it captured, the first WAL file whose records are not
// yet compacted into segments (the replay/truncation point), and the
// live segments. It is the recovery root: files not reachable from
// the current manifest are garbage.
type Manifest struct {
	Schema int        `json:"schema"`
	Gen    uint64     `json:"gen"`
	WALSeq uint64     `json:"wal_seq"`
	Tables []TableRef `json:"tables"`
}

// WriteManifest persists m atomically into dir (tmp + fsync + rename
// + dir fsync), all I/O through fsys (nil means the OS passthrough): a
// crash, or a fault injected on the rename, leaves either the previous
// manifest or the new one, never a torn mix. The JSON is compact, one
// line; LoadManifest reads the indented form earlier builds wrote too.
func WriteManifest(fsys vfs.FS, dir string, m *Manifest) error {
	m.Schema = schemaManifest
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeAtomic(fsys, dir, ManifestName, append(data, '\n'))
}

// LoadManifest reads dir's manifest through fsys (nil means the OS
// passthrough). ok is false when none exists yet (a fresh data
// directory). A table whose File is not one name inside dir makes the
// manifest corrupt: recovery reads a segment file whole, so such a name
// could have it read anything, without bound.
func LoadManifest(fsys vfs.FS, dir string) (m *Manifest, ok bool, err error) {
	data, err := vfs.Or(fsys).ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m = &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Schema != schemaManifest {
		return nil, false, fmt.Errorf("%w: manifest schema %d", ErrCorrupt, m.Schema)
	}
	for _, ref := range m.Tables {
		if f := ref.File; f == "" || f == "." || f == ".." || strings.ContainsAny(f, `/\`) {
			return nil, false, fmt.Errorf("%w: manifest names segment file %q outside the data directory", ErrCorrupt, f)
		}
	}
	return m, true, nil
}

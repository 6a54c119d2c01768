package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"github.com/stslib/sts/internal/store"
)

// watchFileName is the persisted watch-configuration file inside
// Options.Dir.
const watchFileName = "watches.json"

// watchFile is the on-disk shape: a versioned envelope so the format can
// grow fields without breaking older files.
type watchFile struct {
	Version int     `json:"version"`
	Watches []Watch `json:"watches"`
}

// loadWatches reads the persisted watch configurations from dir. A missing
// file is an empty registry, not an error.
func loadWatches(dir string) ([]Watch, error) {
	raw, err := os.ReadFile(filepath.Join(dir, watchFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("stream: read %s: %w", watchFileName, err)
	}
	var f watchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("stream: parse %s: %w", watchFileName, err)
	}
	return f.Watches, nil
}

// persistLocked durably replaces Dir/watches.json with the current watch
// set (store.PublishFile), so a crash mid-write leaves the previous file
// intact and a failed fsync fails the call. Callers hold r.mu. A registry
// without a Dir persists nothing.
func (r *Registry) persistLocked() error {
	if r.opts.Dir == "" {
		return nil
	}
	watches := make([]Watch, 0, len(r.watches))
	for _, ws := range r.watches {
		watches = append(watches, ws.config())
	}
	sort.Slice(watches, func(i, j int) bool { return watches[i].Name < watches[j].Name })
	raw, err := json.MarshalIndent(watchFile{Version: 1, Watches: watches}, "", "  ")
	if err != nil {
		return fmt.Errorf("stream: encode %s: %w", watchFileName, err)
	}
	if err := os.MkdirAll(r.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := store.PublishFile(filepath.Join(r.opts.Dir, watchFileName), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

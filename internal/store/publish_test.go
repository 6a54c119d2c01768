package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func assertNoTemp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%s.tmp left behind (stat err %v)", filepath.Base(path), err)
	}
}

// TestPublishFile covers the durable-publish sequence: success replaces
// the target with exactly the new bytes, and a failing write or a failing
// rename returns the error and leaves the target as it was, with no temp
// file behind.
func TestPublishFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old contents, longer than the new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(path, writeString("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("target = %q, %v; want %q", got, err, "new")
	}
	assertNoTemp(t, path)

	boom := errors.New("boom")
	err := PublishFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write failure returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Errorf("failed publish changed the target to %q", got)
	}
	assertNoTemp(t, path)

	// A directory squatting on the target name makes the rename fail.
	squat := filepath.Join(dir, "squat")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(squat, writeString("x")); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	assertNoTemp(t, squat)
}

// TestWriteManifestRenameFailureLeavesNoTemp checks that a manifest write
// whose rename fails reports the error and cleans up its temp file.
func TestWriteManifestRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, manifestName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, manifest{Version: manifestVersion}); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	assertNoTemp(t, filepath.Join(dir, manifestName))
}

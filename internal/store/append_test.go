package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// extend splits tr into a base of n samples and the remaining tail.
func extend(tr model.Trajectory, n int) (model.Trajectory, []model.Sample) {
	return model.Trajectory{ID: tr.ID, Samples: tr.Samples[:n]}, tr.Samples[n:]
}

// latestWAL returns the highest-sequence WAL segment (possibly empty — the
// live segment right after a snapshot rotation).
func latestWAL(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no wal segment")
	}
	return filepath.Join(dir, last)
}

func TestStoreAppend(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	full := genTrajectory("a", 1, 12)
	base, tail := extend(full, 5)
	r0, err := s.Add(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Append("a", tail[:3])
	if err != nil {
		t.Fatal(err)
	}
	if r1.N != 8 || r1.Gen <= r0.Gen {
		t.Fatalf("ref after append %+v (was %+v)", r1, r0)
	}
	r2, err := s.Append("a", tail[3:])
	if err != nil {
		t.Fatal(err)
	}
	if r2.N != 12 || r2.Gen <= r1.Gen {
		t.Fatalf("ref after second append %+v", r2)
	}
	sameContent(t, s, map[string]model.Trajectory{"a": full})

	// A stale ref keeps decoding its own generation's bytes.
	old, err := r1.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, old, model.Trajectory{ID: "a", Samples: full.Samples[:8]})
}

func TestStoreAppendRejectsInvalid(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	full := genTrajectory("a", 2, 8)
	base, tail := extend(full, 6)
	if _, err := s.Add(base); err != nil {
		t.Fatal(err)
	}
	end := base.Samples[len(base.Samples)-1]
	for name, tc := range map[string]struct {
		id   string
		tail []model.Sample
		want error
	}{
		"missing id": {"nope", tail, ErrNotFound},
		"empty id":   {"", tail, nil},
		"empty tail": {"a", nil, nil},
		"stale time": {"a", []model.Sample{end}, model.ErrDuplicate},
		"reorder":    {"a", []model.Sample{tail[1], tail[0]}, model.ErrUnsorted},
		"nan coord":  {"a", []model.Sample{{T: end.T + 1, Loc: geo.Point{X: math.NaN()}}}, model.ErrNonFinite},
		"inf time":   {"a", []model.Sample{{T: math.Inf(1)}}, model.ErrNonFinite},
	} {
		_, err := s.Append(tc.id, tc.tail)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
	}
	// The rejected appends must not have disturbed the resident record.
	sameContent(t, s, map[string]model.Trajectory{"a": base})
}

// TestAppendRecovery replays appends from the WAL, through snapshots, and
// through a post-snapshot WAL tail: the reopened store must always hold the
// fully extended trajectories.
func TestAppendRecovery(t *testing.T) {
	dir := t.TempDir()
	want := make(map[string]model.Trajectory)
	s := openTest(t, dir)
	for i := 0; i < 8; i++ {
		full := genTrajectory(fmt.Sprintf("t%02d", i), int64(i), 12)
		base, tail := extend(full, 4)
		if _, err := s.Add(base); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(full.ID, tail[:5]); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := s.Append(full.ID, tail[5:]); err != nil {
				t.Fatal(err)
			}
			want[full.ID] = full
		} else {
			want[full.ID] = model.Trajectory{ID: full.ID, Samples: full.Samples[:9]}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir)
	sameContent(t, re, want)
	if info, _ := re.Recovery(); info.WALRecords != 20 || info.SnapshotRecords != 0 {
		t.Fatalf("recovery info %+v", info)
	}

	// Snapshot the appended state, extend further into the WAL tail, crash.
	// (Open may also have kicked off a background compaction snapshot; both
	// serialize on the snapshot lock, so content stays exact either way.)
	if err := re.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i += 2 {
		id := fmt.Sprintf("t%02d", i)
		full := genTrajectory(id, int64(i), 12)
		if _, err := re.Append(id, full.Samples[9:]); err != nil {
			t.Fatal(err)
		}
		want[id] = full
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openTest(t, dir)
	defer re2.Close()
	sameContent(t, re2, want)
	if info, _ := re2.Recovery(); info.SnapshotRecords != 8 || info.TruncatedBytes != 0 {
		t.Fatalf("recovery info %+v", info)
	}
}

// TestAppendReplayIdempotent pins the crash-overlap rule: an opAppend frame
// whose base count does not match the resident record (because a snapshot
// captured the post-append state before the crash) must be skipped on
// replay, not applied twice.
func TestAppendReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	full := genTrajectory("a", 9, 10)
	base, tail := extend(full, 6)
	s := openTest(t, dir)
	if _, err := s.Add(base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("a", tail); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // snapshot already holds the tail
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-write the same append frame into the live WAL segment, simulating
	// the window where the snapshot captured state that frames after the
	// rotation point also describe.
	wal := latestWAL(t, dir)
	var payload []byte
	payload = append(payload, opAppend)
	payload = binary.AppendUvarint(payload, uint64(len("a")))
	payload = append(payload, "a"...)
	blob := appendAppendBlob(nil, 6, appendRecord(nil, tail, 0))
	payload = append(payload, blob...)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openTest(t, dir)
	defer re.Close()
	sameContent(t, re, map[string]model.Trajectory{"a": full})
	if info, _ := re.Recovery(); info.TruncatedBytes != 0 {
		t.Fatalf("idempotent skip misread as torn tail: %+v", info)
	}
}

// TestAppendTornTail tears the WAL inside the append frame: the base record
// must survive, the torn tail must be dropped, and a further reopen must be
// clean.
func TestAppendTornTail(t *testing.T) {
	dir := t.TempDir()
	full := genTrajectory("a", 4, 10)
	base, tail := extend(full, 7)
	s := openTest(t, dir)
	if _, err := s.Add(base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("a", tail); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wal := onlyWAL(t, dir)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir)
	sameContent(t, re, map[string]model.Trajectory{"a": base})
	info, _ := re.Recovery()
	if info.WALRecords != 1 || info.TruncatedBytes == 0 {
		t.Fatalf("recovery info %+v", info)
	}
	re.Close()
	re2 := openTest(t, dir)
	defer re2.Close()
	sameContent(t, re2, map[string]model.Trajectory{"a": base})
}

// TestAppendQuantizedStore appends through a coordinate-quantizing store:
// the merged record re-quantizes with the tail's embedded step on replay.
func TestAppendQuantizedStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FsyncInterval: ExactFsync, SnapshotEvery: -1, CoordStep: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	full := genTrajectory("a", 11, 9)
	for i := range full.Samples { // pre-quantize so equality is exact
		full.Samples[i].Loc.X = math.Round(full.Samples[i].Loc.X*2) / 2
		full.Samples[i].Loc.Y = math.Round(full.Samples[i].Loc.Y*2) / 2
	}
	base, tail := extend(full, 5)
	if _, err := s.Add(base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("a", tail); err != nil {
		t.Fatal(err)
	}
	sameContent(t, s, map[string]model.Trajectory{"a": full})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{FsyncInterval: ExactFsync, SnapshotEvery: -1, CoordStep: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameContent(t, re, map[string]model.Trajectory{"a": full})
}

// FuzzAppendBlobRoundTrip fuzzes the opAppend blob codec: encode/decode
// round-trips, and arbitrary bytes either decode or fail with ErrCorrupt —
// never panic.
func FuzzAppendBlobRoundTrip(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(3), []byte{1, 2, 3})
	f.Add(uint16(65535), []byte{0xFF})
	f.Fuzz(func(t *testing.T, oldN uint16, tail []byte) {
		blob := appendAppendBlob(nil, int(oldN), tail)
		gotN, gotTail, err := splitAppendBlob(blob)
		if len(tail) == 0 {
			if err == nil {
				t.Fatal("empty tail record accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gotN != int(oldN) || string(gotTail) != string(tail) {
			t.Fatalf("round trip mismatch: n %d tail %x", gotN, gotTail)
		}

		// Arbitrary prefixes must fail cleanly, not panic.
		for cut := 0; cut < len(blob); cut++ {
			if _, _, err := splitAppendBlob(blob[:cut]); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt error %v", err)
			}
		}
	})
}

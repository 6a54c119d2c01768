// Snapshots and recovery.
//
// A snapshot at sequence S is taken by (1) rotating the WAL to segment S,
// (2) capturing every resident record, (3) writing them to snapshot-S
// (same frame format as the WAL, op=add per record) via a temp file +
// rename, (4) atomically flipping MANIFEST to point at S, and (5) deleting
// segments and snapshots older than S. Capture is concurrent with new
// mutations — those land in segment S and replay as idempotent upserts.
//
// Recovery loads the manifest's snapshot, then replays every WAL segment
// with sequence >= the snapshot's in order. A torn tail (short frame, bad
// CRC) truncates its segment at the last durable record and ends replay.
// The writer then opens a fresh segment, so recovery never appends to a
// truncated file.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// manifestVersion is the on-disk format version this build writes and the
// newest it can read.
const manifestVersion = 1

// manifest points recovery at the newest durable snapshot.
type manifest struct {
	Version int `json:"version"`
	// Seq is the snapshot's sequence number (0 = no snapshot yet).
	Seq uint64 `json:"seq"`
	// Records is the snapshot's record count, checked on load.
	Records int `json:"records"`
	// CoordStep documents the quantization step active when the snapshot
	// was written (records are self-describing; informational).
	CoordStep float64 `json:"coord_step"`
}

const manifestName = "MANIFEST"

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// Duration is the wall time of recovery (snapshot load + WAL replay).
	Duration time.Duration
	// SnapshotSeq and SnapshotRecords describe the loaded snapshot (0/0
	// when none existed).
	SnapshotSeq     uint64
	SnapshotRecords int
	// WALSegments and WALRecords count the replayed log.
	WALSegments int
	WALRecords  int
	// TruncatedBytes is the size of the torn WAL tail cut during recovery.
	TruncatedBytes int64
	// WarmProfiles is the number of derived-state sidecar entries that
	// revalidated against the recovered corpus (see sidecar.go);
	// WarmDuration is the wall time of the sidecar load. Both are zero when
	// no sidecar existed or Options.DisableSidecar was set.
	WarmProfiles int
	WarmDuration time.Duration
}

// Open builds a persistent store on dir, recovering any prior state:
// newest valid snapshot first, then the WAL tail in sequence order,
// truncating torn tails at the last durable record. The directory is
// created if missing.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	s := New(opts)
	start := time.Now()
	info := RecoveryInfo{}

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if man.Seq > 0 {
		n, err := s.loadSnapshot(snapshotPath(dir, man.Seq), man.Records)
		if err != nil {
			return nil, err
		}
		info.SnapshotSeq, info.SnapshotRecords = man.Seq, n
	}

	segs, maxSeq, err := walSegments(dir, man.Seq)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		n, truncated, err := s.replayWAL(seg)
		if err != nil {
			return nil, err
		}
		info.WALSegments++
		info.WALRecords += n
		info.TruncatedBytes += truncated
		if truncated > 0 {
			s.log.Warn("store: truncated torn wal tail", "segment", seg, "bytes", truncated)
			break // later segments (if any) would replay over the hole
		}
	}

	s.sidecarRecovery(dir, &info)

	p := &persistence{
		dir:           dir,
		fsyncInterval: opts.FsyncInterval,
		snapEvery:     opts.SnapshotEvery,
		seq:           maxSeq + 1,
	}
	if man.Seq > p.seq-1 {
		p.seq = man.Seq + 1
	}
	f, err := createDurable(walPath(dir, p.seq))
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	p.f = f
	if p.fsyncInterval > 0 && p.fsyncInterval != ExactFsync {
		p.stopSync = make(chan struct{})
		p.syncDone = make(chan struct{})
		go p.syncLoop()
	}
	s.pers = p
	info.Duration = time.Since(start)
	s.recovery = &info

	// Replayed segments mean the last run ended without a final snapshot;
	// compact them away in the background so the next recovery is one
	// snapshot load.
	if info.WALRecords > 0 {
		s.triggerSnapshot()
	}
	return s, nil
}

// readManifest loads dir's manifest; a missing file selects the zero
// manifest (fresh directory).
func readManifest(dir string) (manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("store: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, fmt.Errorf("store: parse manifest: %w", err)
	}
	if m.Version > manifestVersion {
		return manifest{}, fmt.Errorf("store: manifest version %d is newer than supported %d", m.Version, manifestVersion)
	}
	return m, nil
}

// writeManifest atomically replaces dir's manifest.
func writeManifest(dir string, m manifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return PublishFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// walSegments lists dir's WAL segment paths with sequence >= minSeq in
// ascending order, and the highest sequence present (0 when none).
func walSegments(dir string, minSeq uint64) ([]string, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: list %s: %w", dir, err)
	}
	type seg struct {
		seq  uint64
		path string
	}
	var segs []seg
	var maxSeq uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, "wal-"), 10, 64)
		if err != nil {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq >= minSeq {
			segs = append(segs, seg{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths, maxSeq, nil
}

// loadSnapshot replays a snapshot file into the store. Unlike WAL replay,
// any framing error is fatal: the manifest only points at snapshots that
// were fully written and synced.
func (s *Store) loadSnapshot(path string, wantRecords int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var buf []byte
	n := 0
	for {
		payload, err := readFrame(br, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("store: snapshot %s record %d: %w", path, n, err)
		}
		buf = payload[:0]
		op, id, blob, err := splitPayload(payload)
		if err != nil {
			return 0, fmt.Errorf("store: snapshot %s record %d: %w", path, n, err)
		}
		if op != opAdd {
			return 0, fmt.Errorf("store: snapshot %s record %d: %w: op %d", path, n, ErrCorrupt, op)
		}
		if err := s.applyReplay(op, id, blob); err != nil {
			return 0, fmt.Errorf("store: snapshot %s record %d: %w", path, n, err)
		}
		n++
	}
	if n != wantRecords {
		return 0, fmt.Errorf("store: snapshot %s: %w: has %d records, manifest says %d", path, ErrCorrupt, n, wantRecords)
	}
	return n, nil
}

// replayWAL replays one segment, truncating a torn tail at the last
// durable record. It returns the replayed record count and the truncated
// byte count.
func (s *Store) replayWAL(path string) (int, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("store: open wal segment: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var buf []byte
	var good int64
	n := 0
	for {
		payload, err := readFrame(br, buf)
		if err == io.EOF {
			return n, 0, nil
		}
		if errors.Is(err, errTorn) {
			if terr := os.Truncate(path, good); terr != nil {
				return 0, 0, fmt.Errorf("store: truncate torn wal %s: %w", path, terr)
			}
			return n, size - good, nil
		}
		if err != nil {
			return 0, 0, err
		}
		buf = payload[:0]
		op, id, blob, perr := splitPayload(payload)
		if perr != nil {
			// Framed but semantically invalid: treat like a torn tail.
			if terr := os.Truncate(path, good); terr != nil {
				return 0, 0, fmt.Errorf("store: truncate torn wal %s: %w", path, terr)
			}
			return n, size - good, nil
		}
		if err := s.applyReplay(op, id, blob); err != nil {
			return 0, 0, fmt.Errorf("store: wal %s record %d: %w", path, n, err)
		}
		good += int64(8 + len(payload))
		n++
	}
}

// triggerSnapshot starts at most one background snapshot.
func (s *Store) triggerSnapshot() {
	if !s.snapping.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.snapping.Store(false)
		if err := s.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
			s.log.Error("store: background snapshot failed", "err", err)
		}
	}()
}

// Snapshot writes a full columnar dump of the resident corpus, flips the
// manifest to it, and prunes superseded WAL segments and snapshots.
func (s *Store) Snapshot() error {
	if s.pers == nil {
		return errors.New("store: snapshot requires a persistent store (Open)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	seq, err := s.pers.rotate()
	if err != nil {
		s.pers.snapErrs.Add(1)
		return err
	}
	refs := s.refs()

	if err := writeSnapshot(s.pers.dir, seq, refs); err != nil {
		s.pers.snapErrs.Add(1)
		return err
	}
	if err := writeManifest(s.pers.dir, manifest{
		Version:   manifestVersion,
		Seq:       seq,
		Records:   len(refs),
		CoordStep: s.CoordStep(),
	}); err != nil {
		s.pers.snapErrs.Add(1)
		return fmt.Errorf("store: write manifest: %w", err)
	}
	s.pers.snapshots.Add(1)
	s.writeSidecar(refs)
	pruneObsolete(s.pers.dir, seq, s.log)
	return nil
}

// writeSnapshot durably writes snapshot-seq via a temp file + rename.
func writeSnapshot(dir string, seq uint64, refs []Ref) error {
	err := PublishFile(snapshotPath(dir, seq), func(w io.Writer) error {
		var payload, frame []byte
		for _, ref := range refs {
			payload = payload[:0]
			payload = append(payload, opAdd)
			payload = appendUvarintBytes(payload, ref.ID)
			payload = append(payload, ref.blob...)
			frame = appendFrame(frame[:0], payload)
			if _, err := w.Write(frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	return nil
}

// appendUvarintBytes appends a uvarint length prefix and the string bytes.
func appendUvarintBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// pruneObsolete deletes WAL segments and snapshots superseded by the
// snapshot at seq, plus stray temp files. Best effort: failures only log.
func pruneObsolete(dir string, seq uint64, log *slog.Logger) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Warn("store: prune listing failed", "err", err)
		return
	}
	for _, e := range entries {
		name := e.Name()
		var prefix string
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
			continue
		case strings.HasPrefix(name, "wal-"):
			prefix = "wal-"
		case strings.HasPrefix(name, "snapshot-"):
			prefix = "snapshot-"
		default:
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
		if err != nil || n >= seq {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			log.Warn("store: prune failed", "file", name, "err", err)
		}
	}
}

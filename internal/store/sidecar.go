// Derived-state sidecar: opportunistic persistence of the engine's profile
// cache next to the corpus snapshot, so a recovered server is warm for
// scoring, not just for data.
//
// The store treats profile payloads as opaque bytes — the engine registers
// a capture callback (SetSidecarSource) and consumes revalidated entries
// after recovery (WarmEntries); internal/core owns the payload codec. Each
// sidecar frame binds its payload to the *content* of the record it was
// derived from (sample count + CRC32-Castagnoli of the encoded record),
// not to the generation number: recovery re-assigns fresh generations on
// replay, so load-time validation matches by content and then remaps the
// entry to the recovered record's current generation. Any record that
// changed since capture — replaced, appended, trimmed, or gone — simply
// fails the match and is discarded; warmth is opportunistic and always
// safe.
//
// The file (profiles.snap) reuses the WAL's CRC32C framing: one version
// frame, then one frame per entry. It is written during snapshot capture
// via temp file + rename and read once at Open. A torn or corrupt tail
// ends the load at the last good frame; a sidecar can never fail recovery.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// sidecarName is the derived-state sidecar's file name. It is constant
// (not sequence-numbered): validation is by record content, so a sidecar
// from any earlier snapshot remains safe, and pruneObsolete never touches
// it.
const sidecarName = "profiles.snap"

// sidecarVersion is the sidecar file format version.
const sidecarVersion = 1

// SidecarEntry is one serialized derived-state payload keyed to a record
// version. On capture the engine supplies the (ID, Gen) its cache key
// holds; on load Gen is the *recovered* record's generation, remapped by
// the store after content validation, so the engine can key its cache
// directly.
type SidecarEntry struct {
	ID   string
	Gen  uint64
	Blob []byte
}

// SidecarCorpus is the optional corpus capability the engine uses to
// persist and recover derived state. *Store implements it.
type SidecarCorpus interface {
	// SetSidecarSource registers the capture callback invoked during
	// snapshot writes. Entries whose generation is no longer current are
	// filtered out by the store.
	SetSidecarSource(fn func() []SidecarEntry)
	// WarmEntries returns the entries revalidated during recovery, at most
	// once: the sidecar payloads whose source records survived intact, each
	// remapped to its record's current generation. Subsequent calls return
	// nil.
	WarmEntries() []SidecarEntry
}

// SetSidecarSource implements SidecarCorpus.
func (s *Store) SetSidecarSource(fn func() []SidecarEntry) {
	s.sideMu.Lock()
	s.sideSrc = fn
	s.sideMu.Unlock()
}

// WarmEntries implements SidecarCorpus.
func (s *Store) WarmEntries() []SidecarEntry {
	s.sideMu.Lock()
	w := s.warm
	s.warm = nil
	s.sideMu.Unlock()
	return w
}

// writeSidecar captures the registered source's entries, filters them to
// generations still current in refs, and durably replaces the sidecar
// file. Best effort: failures log and count, never fail the snapshot.
func (s *Store) writeSidecar(refs []Ref) {
	if s.sidecarOff || s.pers == nil {
		return
	}
	s.sideMu.Lock()
	src := s.sideSrc
	s.sideMu.Unlock()
	if src == nil {
		return
	}
	entries := src()
	if len(entries) == 0 {
		return // keep any prior sidecar: content validation keeps it safe
	}
	byID := make(map[string]Ref, len(refs))
	for _, ref := range refs {
		byID[ref.ID] = ref
	}
	written := 0
	err := PublishFile(filepath.Join(s.pers.dir, sidecarName), func(w io.Writer) error {
		var payload, frame []byte
		frame = appendFrame(frame[:0], []byte{sidecarVersion})
		if _, err := w.Write(frame); err != nil {
			return err
		}
		for _, e := range entries {
			ref, ok := byID[e.ID]
			if !ok || ref.Gen != e.Gen || len(e.Blob) == 0 {
				continue // cache entry is stale against the captured corpus
			}
			payload = payload[:0]
			payload = appendUvarintBytes(payload, e.ID)
			payload = binary.AppendUvarint(payload, uint64(ref.N))
			payload = binary.LittleEndian.AppendUint32(payload, crc32.Checksum(ref.blob, castagnoli))
			payload = append(payload, e.Blob...)
			frame = appendFrame(frame[:0], payload)
			if _, err := w.Write(frame); err != nil {
				return err
			}
			written++
		}
		return nil
	})
	if err != nil {
		s.pers.sidecarErrs.Add(1)
		s.log.Warn("store: sidecar write failed", "err", err)
		return
	}
	s.pers.sidecarWrites.Add(1)
	s.log.Debug("store: sidecar written", "entries", written)
}

// loadSidecar reads dir's sidecar (if any) and revalidates each entry
// against the recovered corpus: the resident record with the entry's ID
// must have the captured sample count and record-bytes checksum. Valid
// entries are remapped to the recovered generation and staged for
// WarmEntries. Every failure mode — missing file, version skew, torn
// tail, content mismatch — degrades to fewer warm entries, never to an
// error.
func (s *Store) loadSidecar(dir string) (loaded int) {
	f, err := os.Open(filepath.Join(dir, sidecarName))
	if err != nil {
		return 0
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var buf []byte
	hdr, err := readFrame(br, buf)
	if err != nil || len(hdr) != 1 || hdr[0] != sidecarVersion {
		if err != io.EOF {
			s.log.Warn("store: sidecar header invalid; starting cold")
		}
		return 0
	}
	var warm []SidecarEntry
	for {
		payload, err := readFrame(br, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.log.Warn("store: torn sidecar tail; remaining entries cold", "err", err)
			break
		}
		idLen, k := binary.Uvarint(payload)
		if k <= 0 || idLen > uint64(len(payload)-k) {
			s.log.Warn("store: corrupt sidecar entry; remaining entries cold")
			break
		}
		rest := payload[k:]
		id := string(rest[:idLen])
		rest = rest[idLen:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || len(rest[k:]) < 4 {
			s.log.Warn("store: corrupt sidecar entry; remaining entries cold")
			break
		}
		rest = rest[k:]
		sum := binary.LittleEndian.Uint32(rest)
		blob := rest[4:]
		ref, ok := s.Resolve(id)
		if !ok || uint64(ref.N) != n || crc32.Checksum(ref.blob, castagnoli) != sum {
			continue // record changed (or vanished) since capture
		}
		warm = append(warm, SidecarEntry{
			ID:   id,
			Gen:  ref.Gen,
			Blob: append([]byte(nil), blob...),
		})
	}
	s.sideMu.Lock()
	s.warm = warm
	s.sideMu.Unlock()
	return len(warm)
}

// sidecarRecovery runs the sidecar load and folds its outcome into the
// recovery report.
func (s *Store) sidecarRecovery(dir string, info *RecoveryInfo) {
	if s.sidecarOff {
		return
	}
	start := time.Now()
	info.WarmProfiles = s.loadSidecar(dir)
	info.WarmDuration = time.Since(start)
	if info.WarmProfiles > 0 {
		s.log.Info("store: sidecar warm load",
			"entries", info.WarmProfiles,
			"warm_seconds", fmt.Sprintf("%.3f", info.WarmDuration.Seconds()))
	}
}

// Write-ahead log: an append-only sequence of length-prefixed, CRC32C-framed
// mutation records. One frame is
//
//	length  uint32 little-endian, payload size
//	crc     uint32 little-endian, CRC32-Castagnoli of the payload
//	payload op byte (add=1, remove=2, replace=3),
//	        uvarint id length, id bytes,
//	        encoded columnar record (add/replace only)
//
// Snapshot files reuse the same framing (op=add per record), so one reader
// serves both. Fsync policy is configurable: batched on an interval
// (default), per record (ExactFsync), or never (negative interval).
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Mutation opcodes.
const (
	opAdd     byte = 1
	opRemove  byte = 2
	opReplace byte = 3
	// opAppend extends a resident record with a tail of samples. Its blob is
	// a uvarint of the expected prior sample count followed by the tail
	// encoded as its own columnar record — the WAL carries only the delta,
	// not the whole re-encoded trajectory.
	opAppend byte = 4
)

// maxFrame caps a frame's payload so corrupt length prefixes cannot drive
// huge allocations during replay.
const maxFrame = 256 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks the point where a WAL tail stops being durable: a short
// frame, an oversized length, or a CRC mismatch. Recovery truncates there.
var errTorn = errors.New("store: torn record")

// appendFrame frames one payload into dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// readFrame reads the next frame's payload into buf (grown as needed). It
// returns io.EOF at a clean end of stream and errTorn on a torn or corrupt
// tail.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header", errTorn)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d", errTorn, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("%w: short payload", errTorn)
	}
	if crc32.Checksum(buf, castagnoli) != crc {
		return nil, fmt.Errorf("%w: crc mismatch", errTorn)
	}
	return buf, nil
}

// splitPayload decodes a frame payload into its mutation parts.
func splitPayload(payload []byte) (op byte, id string, blob []byte, err error) {
	if len(payload) == 0 {
		return 0, "", nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	op = payload[0]
	rest := payload[1:]
	idLen, k := binary.Uvarint(rest)
	if k <= 0 || idLen > uint64(len(rest)-k) {
		return 0, "", nil, fmt.Errorf("%w: bad id length", ErrCorrupt)
	}
	rest = rest[k:]
	id = string(rest[:idLen])
	blob = rest[idLen:]
	if id == "" {
		return 0, "", nil, fmt.Errorf("%w: empty id", ErrCorrupt)
	}
	if op == opRemove && len(blob) != 0 {
		return 0, "", nil, fmt.Errorf("%w: remove with record bytes", ErrCorrupt)
	}
	if op == opAppend && len(blob) == 0 {
		return 0, "", nil, fmt.Errorf("%w: append without tail bytes", ErrCorrupt)
	}
	return op, id, blob, nil
}

// appendAppendBlob encodes an opAppend frame blob: the expected prior
// sample count followed by the tail's columnar record.
func appendAppendBlob(dst []byte, oldN int, tailRecord []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(oldN))
	return append(dst, tailRecord...)
}

// splitAppendBlob decodes an opAppend frame blob.
func splitAppendBlob(blob []byte) (oldN int, tail []byte, err error) {
	n, k := binary.Uvarint(blob)
	if k <= 0 || n > uint64(maxFrame) {
		return 0, nil, fmt.Errorf("%w: bad append base count", ErrCorrupt)
	}
	if len(blob) == k {
		return 0, nil, fmt.Errorf("%w: append without tail record", ErrCorrupt)
	}
	return int(n), blob[k:], nil
}

// persistence is the durable half of a Store: the open WAL segment and the
// background fsync loop.
type persistence struct {
	dir           string
	fsyncInterval time.Duration
	snapEvery     int64

	mu       sync.Mutex
	f        *os.File
	seq      uint64
	walBytes int64
	needSync bool
	closed   bool
	payload  []byte
	frame    []byte

	snapshots     atomic.Uint64
	snapErrs      atomic.Uint64
	sidecarWrites atomic.Uint64
	sidecarErrs   atomic.Uint64

	stopSync chan struct{}
	syncDone chan struct{}
}

// append frames and writes one mutation record, applying the fsync policy.
// It reports whether the WAL has grown past the snapshot trigger.
func (p *persistence) append(op byte, id string, blob []byte) (trigger bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, ErrClosed
	}
	p.payload = p.payload[:0]
	p.payload = append(p.payload, op)
	p.payload = binary.AppendUvarint(p.payload, uint64(len(id)))
	p.payload = append(p.payload, id...)
	p.payload = append(p.payload, blob...)
	p.frame = appendFrame(p.frame[:0], p.payload)
	if _, err := p.f.Write(p.frame); err != nil {
		return false, fmt.Errorf("store: wal append: %w", err)
	}
	p.walBytes += int64(len(p.frame))
	switch {
	case p.fsyncInterval == ExactFsync:
		if err := p.f.Sync(); err != nil {
			return false, fmt.Errorf("store: wal fsync: %w", err)
		}
	case p.fsyncInterval > 0:
		p.needSync = true
	}
	return p.snapEvery > 0 && p.walBytes >= p.snapEvery, nil
}

// rotate opens the next WAL segment and returns the superseded file (synced
// and closed best-effort by the caller) with the new sequence number.
func (p *persistence) rotate() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	newSeq := p.seq + 1
	nf, err := createDurable(walPath(p.dir, newSeq))
	if err != nil {
		return 0, err
	}
	old := p.f
	p.f, p.seq, p.walBytes, p.needSync = nf, newSeq, 0, false
	// Sync the superseded segment so everything the snapshot supersedes is
	// also independently durable until the manifest flips.
	old.Sync()
	old.Close()
	return newSeq, nil
}

func (p *persistence) walStats() (bytes int64, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.walBytes, p.seq
}

// syncLoop batches fsyncs on the configured interval.
func (p *persistence) syncLoop() {
	defer close(p.syncDone)
	t := time.NewTicker(p.fsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopSync:
			return
		case <-t.C:
			p.mu.Lock()
			if p.needSync && !p.closed {
				p.f.Sync()
				p.needSync = false
			}
			p.mu.Unlock()
		}
	}
}

// close stops the sync loop and durably closes the current segment.
func (p *persistence) close() error {
	if p.stopSync != nil {
		close(p.stopSync)
		<-p.syncDone
		p.stopSync = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.f.Sync()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d", seq))
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%016d", seq))
}

// createDurable creates a file and syncs its directory so the new name
// itself survives a crash.
func createDurable(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// PublishFile durably replaces path with the bytes write produces: it
// writes a sibling temp file through a buffer, flushes, fsyncs and closes
// it, renames it over path and fsyncs the directory, so a crash leaves
// either the old file or the new one. Every step's error is returned, and
// on any failure before the rename the temp file is removed.
func PublishFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

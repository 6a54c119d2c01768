// Binary codec for Profile: the payload format of the derived-state
// sidecar (internal/store's profiles.snap). The store frames and
// checksums these blobs with the same CRC32-Castagnoli framing as the
// WAL; this codec only defines the payload, so core stays free of any
// persistence concern and the store stays free of scoring internals.
//
// The encoding is strictly versioned and the decoder is defensive: any
// truncated, corrupted, or oversized payload yields an error, never a
// panic and never an unbounded allocation — warm loads run against
// whatever bytes survived a crash.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/stslib/sts/internal/stprob"
)

// profileCodecVersion is the sidecar payload version. Bump on any layout
// change; the decoder rejects versions it does not understand, which a
// warm load treats as a skippable (cold) entry.
const profileCodecVersion = 1

// Payload flag bits. Bit 0 marked float32 (compact) profiles, a storage
// mode since retired; the decoder rejects it like any other unknown bit.
const (
	pcFlagBounds    = 1 << 1
	pcFlagUnbounded = 1 << 2
	pcKnownFlags    = pcFlagBounds | pcFlagUnbounded
)

// maxProfileIDBytes bounds the encoded ID length a decoder will accept.
const maxProfileIDBytes = 1 << 12

// EncodeProfile serializes a profile — scoring state and, when present,
// the filter-and-refine bound state — into a self-contained binary blob
// decodable by DecodeProfile. The profile is not mutated.
func EncodeProfile(p *Profile) []byte {
	if p == nil {
		return nil
	}
	// Rough capacity: cells dominate; one uvarint cell + one probability
	// per stored pair, plus headroom for metadata.
	est := 64 + len(p.ID) + 5*len(p.cells) + 8*len(p.probs) + 16*len(p.buckets)
	buf := make([]byte, 0, est)
	buf = append(buf, profileCodecVersion)
	var flags byte
	if p.HasBounds() {
		flags |= pcFlagBounds
	}
	if p.unbounded {
		flags |= pcFlagUnbounded
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(p.ID)))
	buf = append(buf, p.ID...)
	buf = pcAppendF64(buf, p.BucketSeconds)
	buf = binary.AppendUvarint(buf, uint64(p.n))
	buf = binary.AppendUvarint(buf, uint64(len(p.buckets)))
	for _, b := range p.buckets {
		buf = binary.AppendVarint(buf, b)
	}
	for _, w := range p.weights {
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	// Per-entry view lengths, then the shared backing arrays: the decoder
	// re-slices the views exactly as finishProfileViews does.
	for _, d := range p.dists {
		buf = binary.AppendUvarint(buf, uint64(len(d.Cells)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.cells)))
	for _, c := range p.cells {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	for _, v := range p.probs {
		buf = pcAppendF64(buf, v)
	}
	if !p.HasBounds() {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(p.nx))
	buf = binary.AppendVarint(buf, p.b0)
	buf = binary.AppendVarint(buf, p.b1)
	buf = binary.AppendUvarint(buf, uint64(len(p.env)))
	for _, bx := range p.env {
		buf = pcAppendBox(buf, bx)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.bndBuckets)))
	for i, b := range p.bndBuckets {
		buf = binary.AppendVarint(buf, b)
		buf = binary.AppendUvarint(buf, uint64(p.bndFirst[i]))
		buf = binary.AppendUvarint(buf, uint64(p.bndCount[i]))
		buf = pcAppendBox(buf, p.bndBox[i])
		buf = pcAppendF64(buf, p.bndMass[i])
		d := p.bndDist[i]
		buf = binary.AppendUvarint(buf, uint64(len(d.Cells)))
		for _, c := range d.Cells {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
		for _, v := range d.Probs {
			buf = pcAppendF64(buf, v)
		}
	}
	for i := range p.buckets {
		buf = pcAppendBox(buf, p.entryBox[i])
		buf = pcAppendF64(buf, p.entryMax[i])
		buf = pcAppendF64(buf, p.entrySum[i])
	}
	for _, v := range p.sufW {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = pcAppendF64(buf, p.maxEntryMax)
	buf = pcAppendF64(buf, p.maxEntrySum)
	return buf
}

// DecodeProfile reconstructs a profile encoded by EncodeProfile. Every
// slice is freshly allocated (decoded bound distributions own their
// storage even where the original aliased a Prepared cache — same
// values, owned backing). Malformed input of any kind returns an error.
func DecodeProfile(blob []byte) (*Profile, error) {
	r := pcReader{b: blob}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver != profileCodecVersion {
		return nil, fmt.Errorf("core: profile codec version %d not supported", ver)
	}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	if flags&^pcKnownFlags != 0 {
		return nil, fmt.Errorf("core: profile flags %#x carry unknown bits", flags)
	}
	hasBounds := flags&pcFlagBounds != 0
	idLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if idLen > maxProfileIDBytes {
		return nil, fmt.Errorf("core: profile ID of %d bytes exceeds limit", idLen)
	}
	idBytes, err := r.bytes(int(idLen))
	if err != nil {
		return nil, err
	}
	p := &Profile{ID: string(idBytes)}
	if p.BucketSeconds, err = r.f64(); err != nil {
		return nil, err
	}
	if p.BucketSeconds <= 0 || math.IsNaN(p.BucketSeconds) || math.IsInf(p.BucketSeconds, 0) {
		return nil, errors.New("core: decoded profile bucket width is not positive and finite")
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("core: decoded profile sample count %d out of range", n)
	}
	p.n = int(n)
	ne, err := r.count(1) // entries: ≥1 varint byte each remaining
	if err != nil {
		return nil, err
	}
	if ne > maxProfileBuckets {
		return nil, fmt.Errorf("core: decoded profile has %d buckets (max %d)", ne, maxProfileBuckets)
	}
	if ne > 0 {
		p.buckets = make([]int64, ne)
		p.weights = make([]int32, ne)
	}
	for i := range p.buckets {
		if p.buckets[i], err = r.varint(); err != nil {
			return nil, err
		}
		if i > 0 && p.buckets[i] <= p.buckets[i-1] {
			return nil, errors.New("core: decoded profile buckets are not strictly ascending")
		}
	}
	for i := range p.weights {
		w, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if w > math.MaxInt32 {
			return nil, errors.New("core: decoded profile bucket weight out of range")
		}
		p.weights[i] = int32(w)
	}
	lens := make([]int, ne)
	var totalLens uint64
	for i := range lens {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if l > uint64(r.remaining()) {
			return nil, errProfileTruncated
		}
		lens[i] = int(l)
		totalLens += l
	}
	nc, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if uint64(nc) != totalLens {
		return nil, errors.New("core: decoded profile cell count disagrees with entry lengths")
	}
	if p.cells, err = r.cells(nc); err != nil {
		return nil, err
	}
	if err := r.need(8 * nc); err != nil {
		return nil, err
	}
	if nc > 0 {
		p.probs = make([]float64, nc)
	}
	for i := range p.probs {
		if p.probs[i], err = r.f64(); err != nil {
			return nil, err
		}
	}
	if ne > 0 {
		p.dists = make([]stprob.Dist, ne)
	}
	for i, l := range lens {
		p.dists[i] = stprob.Dist{Cells: make([]int, l), Probs: make([]float64, l)}
	}
	finishProfileViews(p)
	if !hasBounds {
		if r.remaining() != 0 {
			return nil, errors.New("core: trailing bytes after decoded profile")
		}
		return p, nil
	}
	nx, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nx > math.MaxInt32 {
		return nil, errors.New("core: decoded profile grid width out of range")
	}
	p.nx = int(nx)
	if p.b0, err = r.varint(); err != nil {
		return nil, err
	}
	if p.b1, err = r.varint(); err != nil {
		return nil, err
	}
	p.unbounded = flags&pcFlagUnbounded != 0
	nenv, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if nenv > 0 {
		p.env = make([]cellBox, nenv)
		for i := range p.env {
			if p.env[i], err = r.box(); err != nil {
				return nil, err
			}
		}
	}
	nb, err := r.count(2)
	if err != nil {
		return nil, err
	}
	if nb > 0 {
		p.bndBuckets = make([]int64, nb)
		p.bndFirst = make([]int32, nb)
		p.bndCount = make([]int32, nb)
		p.bndBox = make([]cellBox, nb)
		p.bndMass = make([]float64, nb)
		p.bndDist = make([]stprob.Dist, nb)
	}
	for i := 0; i < nb; i++ {
		if p.bndBuckets[i], err = r.varint(); err != nil {
			return nil, err
		}
		first, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if first > math.MaxInt32 || count > math.MaxInt32 {
			return nil, errors.New("core: decoded bound run out of range")
		}
		p.bndFirst[i], p.bndCount[i] = int32(first), int32(count)
		if p.bndBox[i], err = r.box(); err != nil {
			return nil, err
		}
		if p.bndMass[i], err = r.f64(); err != nil {
			return nil, err
		}
		dl, err := r.count(1)
		if err != nil {
			return nil, err
		}
		d := stprob.Dist{}
		if dl > 0 {
			if d.Cells, err = r.cells(dl); err != nil {
				return nil, err
			}
			if err := r.need(8 * dl); err != nil {
				return nil, err
			}
			d.Probs = make([]float64, dl)
			for k := range d.Probs {
				if d.Probs[k], err = r.f64(); err != nil {
					return nil, err
				}
			}
		}
		p.bndDist[i] = d
	}
	if ne > 0 {
		p.entryBox = make([]cellBox, ne)
		p.entryMax = make([]float64, ne)
		p.entrySum = make([]float64, ne)
	}
	for i := 0; i < ne; i++ {
		if p.entryBox[i], err = r.box(); err != nil {
			return nil, err
		}
		if p.entryMax[i], err = r.f64(); err != nil {
			return nil, err
		}
		if p.entrySum[i], err = r.f64(); err != nil {
			return nil, err
		}
	}
	p.sufW = make([]int64, ne+1)
	for i := range p.sufW {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt64 {
			return nil, errors.New("core: decoded suffix weight out of range")
		}
		p.sufW[i] = int64(v)
	}
	if p.maxEntryMax, err = r.f64(); err != nil {
		return nil, err
	}
	if p.maxEntrySum, err = r.f64(); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, errors.New("core: trailing bytes after decoded profile")
	}
	return p, nil
}

func pcAppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func pcAppendBox(b []byte, bx cellBox) []byte {
	b = binary.AppendVarint(b, int64(bx.c0))
	b = binary.AppendVarint(b, int64(bx.c1))
	b = binary.AppendVarint(b, int64(bx.r0))
	b = binary.AppendVarint(b, int64(bx.r1))
	return b
}

var errProfileTruncated = errors.New("core: truncated profile blob")

// pcReader is a strict cursor over an encoded profile: every read is
// bounds-checked and every count is validated against the bytes left, so
// corrupt input fails fast instead of allocating or panicking.
type pcReader struct {
	b   []byte
	pos int
}

func (r *pcReader) remaining() int { return len(r.b) - r.pos }

func (r *pcReader) need(n int) error {
	if n < 0 || r.remaining() < n {
		return errProfileTruncated
	}
	return nil
}

func (r *pcReader) byte() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, errProfileTruncated
	}
	v := r.b[r.pos]
	r.pos++
	return v, nil
}

func (r *pcReader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

func (r *pcReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, errProfileTruncated
	}
	r.pos += n
	return v, nil
}

func (r *pcReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, errProfileTruncated
	}
	r.pos += n
	return v, nil
}

// count reads an element count and sanity-checks it against the bytes
// remaining, given a minimum encoded size per element — a corrupt length
// can therefore never trigger an allocation larger than the blob itself.
func (r *pcReader) count(minElemBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minElemBytes)+1 {
		return 0, errProfileTruncated
	}
	return int(v), nil
}

func (r *pcReader) f64() (float64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.pos:]))
	r.pos += 8
	return v, nil
}

func (r *pcReader) box() (cellBox, error) {
	var bx cellBox
	for _, f := range []*int32{&bx.c0, &bx.c1, &bx.r0, &bx.r1} {
		v, err := r.varint()
		if err != nil {
			return bx, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return bx, errors.New("core: decoded cell box coordinate out of range")
		}
		*f = int32(v)
	}
	return bx, nil
}

func (r *pcReader) cells(n int) ([]int, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, errors.New("core: decoded cell index out of range")
		}
		out[i] = int(v)
	}
	return out, nil
}

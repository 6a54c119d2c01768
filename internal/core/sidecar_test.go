package core

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// goldenProfile is a hand-built float64 profile with bound state. Every
// float is a short binary fraction, so its encoding does not depend on how
// a platform rounds computed values.
func goldenProfile() *Profile {
	p := &Profile{
		ID:            "g1",
		BucketSeconds: 30,
		n:             3,
		buckets:       []int64{-1, 0, 2},
		weights:       []int32{1, 0, 2},
		dists:         make([]stprob.Dist, 3),
		cells:         []int{4, 5, 5, 9, 10},
		probs:         []float64{0.25, 0.75, 1, 0.5, 0.5},
		nx:            4,
		b0:            -1,
		b1:            2,
		env:           []cellBox{{0, 1, 1, 2}, {0, 2, 1, 2}, {0, 3, 0, 3}, {1, 2, 2, 2}},
		bndBuckets:    []int64{-1, 2},
		bndFirst:      []int32{0, 1},
		bndCount:      []int32{1, 2},
		bndDist: []stprob.Dist{
			{Cells: []int{4, 5}, Probs: []float64{0.25, 0.75}},
			{Cells: []int{9, 10}, Probs: []float64{1, 1}},
		},
		bndBox:      []cellBox{{0, 1, 1, 1}, {1, 2, 2, 2}},
		bndMass:     []float64{1, 2},
		entryBox:    []cellBox{{0, 1, 1, 1}, {1, 1, 1, 1}, {1, 2, 2, 2}},
		entryMax:    []float64{0.75, 1, 0.5},
		entrySum:    []float64{1, 1, 1},
		sufW:        []int64{3, 2, 2, 0},
		maxEntryMax: 1,
		maxEntrySum: 1,
	}
	p.dists[0].Cells = make([]int, 2)
	p.dists[1].Cells = make([]int, 1)
	p.dists[2].Cells = make([]int, 2)
	finishProfileViews(p)
	return p
}

// goldenProfileHex is EncodeProfile(goldenProfile()): sidecar payload
// version 1 with the bounds flag. Sidecars written by earlier releases
// must keep warm-loading, so this layout may only change with a version
// bump.
const goldenProfileHex = "" +
	"01020267310000000000003e40030301000401000202010205040505090a0000" +
	"00000000d03f000000000000e83f000000000000f03f000000000000e03f0000" +
	"00000000e03f0401040400020204000402040006000602040404020100010002" +
	"0202000000000000f03f020405000000000000d03f000000000000e83f040102" +
	"02040404000000000000004002090a000000000000f03f000000000000f03f00" +
	"020202000000000000e83f000000000000f03f02020202000000000000f03f00" +
	"0000000000f03f02040404000000000000e03f000000000000f03f0302020000" +
	"0000000000f03f000000000000f03f"

// TestProfileCodecGoldenBytes pins the float64 sidecar payload layout.
func TestProfileCodecGoldenBytes(t *testing.T) {
	want := goldenProfile()
	blob := EncodeProfile(want)
	if got := hex.EncodeToString(blob); got != goldenProfileHex {
		t.Fatalf("EncodeProfile layout changed:\n got %s\nwant %s", got, goldenProfileHex)
	}
	got, err := DecodeProfile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden blob decodes to\n%+v\nwant\n%+v", got, want)
	}
}

// TestDecodeProfileRejectsUnknownFlags pins the decoder's flag check: only
// the bounds, unbounded and bound-only bits are defined, so a payload
// carrying any other bit is refused and a warm load treats its entry as
// cold. The bound-only bit is refused on a payload with entries or
// without bound state.
func TestDecodeProfileRejectsUnknownFlags(t *testing.T) {
	golden, err := hex.DecodeString(goldenProfileHex)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8; bit++ {
		if 1<<bit&pcKnownFlags != 0 {
			continue
		}
		blob := append([]byte(nil), golden...)
		blob[1] |= 1 << bit
		if _, err := DecodeProfile(blob); err == nil {
			t.Errorf("flag bit %d accepted", bit)
		}
	}
	withEntries := append([]byte(nil), golden...)
	withEntries[1] |= pcFlagBoundsOnly
	if _, err := DecodeProfile(withEntries); err == nil {
		t.Error("bound-only flag accepted on a payload with entries")
	}
	bare := EncodeProfile(&Profile{ID: "z", BucketSeconds: 30, n: 1})
	if _, err := DecodeProfile(bare); err != nil {
		t.Fatal(err)
	}
	bare[1] |= pcFlagBoundsOnly
	if _, err := DecodeProfile(bare); err == nil {
		t.Error("bound-only flag accepted without bound state")
	}
}

// TestDecodeProfileRejectsCompactBlob hand-builds a payload in the retired
// compact layout (flag bit 0, float32 probabilities) and requires the
// decoder to refuse it.
func TestDecodeProfileRejectsCompactBlob(t *testing.T) {
	blob := []byte{profileCodecVersion, 1 << 0}
	blob = binary.AppendUvarint(blob, 2)
	blob = append(blob, "c1"...)
	blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(30))
	blob = binary.AppendUvarint(blob, 1)      // samples
	blob = binary.AppendUvarint(blob, 1)      // entries
	blob = binary.AppendVarint(blob, 0)       // bucket
	blob = binary.AppendUvarint(blob, 1)      // weight
	blob = binary.AppendUvarint(blob, 2)      // entry length
	blob = binary.AppendUvarint(blob, 2)      // cells
	blob = binary.AppendUvarint(blob, 4)      // cell 4
	blob = binary.AppendUvarint(blob, 5)      // cell 5
	for _, v := range []float32{0.25, 0.75} { // float32 probabilities
		blob = binary.LittleEndian.AppendUint32(blob, math.Float32bits(v))
	}
	if p, err := DecodeProfile(blob); err == nil {
		t.Fatalf("compact blob decoded: %+v", p)
	}
}

// TestProfileCodecRoundTrip pins the sidecar payload codec: encoding and
// decoding a profile reproduces every field bit-identically — across
// provider families and bucket widths, with bound metadata on and off, and
// bound-only.
// (Decoded bound distributions own their storage where the original
// aliased the Prepared cache; reflect.DeepEqual compares values, which is
// the contract warm-loaded profiles rely on.)
func TestProfileCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	seedDS := model.Dataset{randTraj(r, "s1", 12), randTraj(r, "s2", 9)}
	for name, m := range measuresUnderTest(t, seedDS) {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				tr := randTraj(r, "tr", 4+r.Intn(10))
				for _, opts := range []ProfileOptions{
					{BucketSeconds: 30},
					{BucketSeconds: 30, Bounds: true},
					{BucketSeconds: 120, Bounds: true},
					{BucketSeconds: 30, BoundsOnly: true},
				} {
					want := mustProfile(t, m, tr, opts)
					got, err := DecodeProfile(EncodeProfile(want))
					if err != nil {
						t.Fatalf("decode (opts %+v): %v", opts, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round trip not identical (opts %+v):\n got %+v\nwant %+v", opts, got, want)
					}
				}
			}
		})
	}
}

// TestProfileCodecRejectsCorruption walks every truncation point and a
// sweep of byte flips over a valid encoding: the decoder must return an
// error or a decodable profile, never panic.
func TestProfileCodecRejectsCorruption(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	blob := EncodeProfile(mustProfile(t, m, tr, ProfileOptions{Bounds: true, BucketSeconds: 30}))
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeProfile(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(blob))
		}
	}
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x5b
		p, err := DecodeProfile(mut) // must not panic; error or success both fine
		_ = p
		_ = err
	}
	if _, err := DecodeProfile(nil); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := DecodeProfile([]byte{99}); err == nil {
		t.Error("unknown version accepted")
	}
}

// FuzzDecodeProfile hammers the decoder with arbitrary bytes: it must
// never panic or allocate beyond the blob's own size class, and anything
// it does accept must re-encode without panicking.
func FuzzDecodeProfile(f *testing.F) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -30, Y: -30}, geo.Point{X: 230, Y: 230}), 5)
	if err != nil {
		f.Fatal(err)
	}
	m, err := NewSTS(g, 3)
	if err != nil {
		f.Fatal(err)
	}
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	p, err := m.Prepare(tr)
	if err != nil {
		f.Fatal(err)
	}
	var bounded []byte
	for _, opts := range []ProfileOptions{
		{BucketSeconds: 30, BoundsOnly: true},
		{BucketSeconds: 30},
		{BucketSeconds: 30, Bounds: true},
	} {
		prof, err := m.Profile(p, opts)
		if err != nil {
			f.Fatal(err)
		}
		bounded = EncodeProfile(prof)
		f.Add(bounded)
	}
	// The retired compact flag bit on an otherwise valid payload.
	retired := append([]byte(nil), bounded...)
	retired[1] |= 1
	f.Add(retired)
	f.Add([]byte{profileCodecVersion, 0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		prof, err := DecodeProfile(blob)
		if err != nil {
			return
		}
		_ = EncodeProfile(prof)
	})
}

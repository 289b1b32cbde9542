package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
)

func sampleDelta() *Delta {
	return &Delta{
		Table:       "items",
		FromVersion: 7,
		ToVersion:   9,
		Root:        storage.PageID(3),
		Height:      2,
		RootSig:     []byte{0xAA, 0xBB},
		HeapPages:   []storage.PageID{5, 6},
		NumPages:    12,
		PageIDs:     []storage.PageID{3, 8},
		PageData:    [][]byte{{1, 2, 3}, {4, 5, 6}},
		KeyVersion:  1,
		Scheme:      uint8(sig.SchemeEd25519),
		Sig:         []byte{0xCC, 0xDD, 0xEE},
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := sampleDelta()
	got, err := DecodeDelta(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != d.Table || got.FromVersion != d.FromVersion || got.ToVersion != d.ToVersion {
		t.Fatalf("versions: got %+v", got)
	}
	if got.SnapshotNeeded {
		t.Fatal("SnapshotNeeded flipped on")
	}
	if got.Root != d.Root || got.Height != d.Height || !bytes.Equal(got.RootSig, d.RootSig) {
		t.Fatalf("tree metadata: got %+v", got)
	}
	if len(got.HeapPages) != 2 || got.HeapPages[1] != 6 {
		t.Fatalf("heap pages: %v", got.HeapPages)
	}
	if got.NumPages != 12 || got.KeyVersion != 1 {
		t.Fatalf("NumPages/KeyVersion: %d/%d", got.NumPages, got.KeyVersion)
	}
	if len(got.PageIDs) != 2 || got.PageIDs[1] != 8 || !bytes.Equal(got.PageData[1], []byte{4, 5, 6}) {
		t.Fatalf("pages: %v %v", got.PageIDs, got.PageData)
	}
	if !bytes.Equal(got.Sig, d.Sig) {
		t.Fatalf("sig: %x", got.Sig)
	}
}

func TestDeltaSnapshotNeededRoundTrip(t *testing.T) {
	d := &Delta{Table: "t", FromVersion: 1, ToVersion: 99, SnapshotNeeded: true, Sig: []byte{1}}
	got, err := DecodeDelta(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.SnapshotNeeded || got.ToVersion != 99 {
		t.Fatalf("got %+v", got)
	}
}

func TestDeltaSigPayloadCoversContent(t *testing.T) {
	d := sampleDelta()
	base := d.SigPayload()
	// The signature field itself must not feed the payload.
	d.Sig = []byte{9, 9, 9}
	if !bytes.Equal(d.SigPayload(), base) {
		t.Fatal("SigPayload depends on Sig")
	}
	// Any content change must change the payload.
	d.PageData[0][0] ^= 1
	if bytes.Equal(d.SigPayload(), base) {
		t.Fatal("SigPayload ignores page content")
	}
	d.PageData[0][0] ^= 1
	d.ToVersion++
	if bytes.Equal(d.SigPayload(), base) {
		t.Fatal("SigPayload ignores ToVersion")
	}
}

func TestDeltaDecodeRejectsTruncation(t *testing.T) {
	enc := sampleDelta().Encode()
	for _, cut := range []int{1, 5, 12, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeDelta(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeDelta(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// pageMap is a storage.PageReader over decoded page contents.
type pageMap struct {
	size  int
	pages map[storage.PageID][]byte
}

func (m pageMap) PageSize() int { return m.size }
func (m pageMap) View(id storage.PageID) ([]byte, error) {
	p, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("no page %d", id)
	}
	return p, nil
}

// replaySigner stands in for a signing key the fixtures cannot carry: it
// hands out the signature the parent commit made, and only for the
// payload that signature authenticates.
type replaySigner struct {
	pub *sig.PublicKey
	sg  sig.Signature
}

func (r replaySigner) Len() int { return len(r.sg) }
func (r replaySigner) Sign(payload []byte) (sig.Signature, error) {
	if err := r.pub.Verify(r.sg, payload); err != nil {
		return nil, fmt.Errorf("digest taken in place is not the one the parent commit signed: %w", err)
	}
	return r.sg, nil
}

// TestDeltaBytesMatchParentCommit pins the wire format across the
// encode-once rewrite. testdata/parent-cc58d1a holds what a central at
// the parent commit (cc58d1a) served for a 40-row table under each
// scheme this build knows — (*Delta).Encode() of a real delta, of a
// SnapshotNeeded marker and of a noop, made when the core was serialised twice from a nil slice. Every
// body must decode, carry a signature that verifies over the received
// bytes, re-encode to itself through the struct-form encoder, and come
// out of the serving side's AppendSigned byte for byte — into a fresh
// buffer and in place behind bytes already in a lent one.
// (edge.TestDeltaFromParentCommitApplies applies the same bodies.)
func TestDeltaBytesMatchParentCommit(t *testing.T) {
	for _, scheme := range []string{"rsa-merkle", "ed25519"} {
		read := func(name string) []byte {
			t.Helper()
			b, err := os.ReadFile(filepath.Join("testdata", "parent-cc58d1a", scheme, name))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		pub := new(sig.PublicKey)
		if err := pub.UnmarshalBinary(read("key.pub")); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"delta", "marker", "noop"} {
			t.Run(scheme+"/"+kind, func(t *testing.T) {
				parent := read(kind + ".bin")
				d, err := DecodeDelta(parent)
				if err != nil {
					t.Fatal(err)
				}
				if real := !d.SnapshotNeeded && d.ToVersion > d.FromVersion && len(d.PageIDs) > 0; real != (kind == "delta") ||
					d.SnapshotNeeded != (kind == "marker") {
					t.Fatalf("fixture is not a %s: %d pages, v%d→v%d, snapshot-needed %t", kind, len(d.PageIDs), d.FromVersion, d.ToVersion, d.SnapshotNeeded)
				}
				payload, err := d.SigPayloadOfBody(parent)
				if err != nil {
					t.Fatal(err)
				}
				if err := pub.Verify(d.Sig, payload); err != nil {
					t.Fatalf("parent-encoded body does not verify: %v", err)
				}
				if !bytes.Equal(d.SigPayload(), payload) {
					t.Fatal("SigPayload of the decoded struct differs from the digest of the received bytes")
				}
				if !bytes.Equal(d.Encode(), parent) {
					t.Fatal("Encode of the decoded struct differs from the parent commit's bytes")
				}

				src := pageMap{size: 1024, pages: make(map[storage.PageID][]byte)}
				for i, id := range d.PageIDs {
					src.pages[id] = d.PageData[i]
				}
				hdr := *d
				hdr.PageData, hdr.Sig = nil, nil
				body, err := hdr.AppendSigned(nil, src, replaySigner{pub, d.Sig})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, parent) {
					t.Fatal("AppendSigned differs from the parent commit's bytes")
				}
				if cap(body) != len(parent) {
					t.Fatalf("AppendSigned reserved %d bytes for a %d-byte body", cap(body), len(parent))
				}
				if !bytes.Equal(hdr.Encode(), parent) {
					t.Fatal("the struct AppendSigned completed does not encode to the body it appended")
				}

				lent := append(make([]byte, 0, 3+len(parent)), "hdr"...)
				hdr.PageData, hdr.Sig = nil, nil
				framed, err := hdr.AppendSigned(lent, src, replaySigner{pub, d.Sig})
				if err != nil {
					t.Fatal(err)
				}
				if &framed[0] != &lent[0] {
					t.Fatal("AppendSigned left a buffer that had room for the body")
				}
				if string(framed[:3]) != "hdr" || !bytes.Equal(framed[3:], parent) {
					t.Fatal("AppendSigned behind a prefix differs from the parent commit's bytes")
				}
			})
		}
	}
}

// TestDecodeDeltaBoundsItsAllocations: the two counts that size a slice
// are checked against the bytes left in the body before anything is
// reserved, so a 1 KB body that claims 2³¹ heap pages or 2³¹ changed pages
// is refused after allocating about its own size, not gigabytes.
func TestDecodeDeltaBoundsItsAllocations(t *testing.T) {
	hostile := func(heapPages, changedPages uint32) []byte {
		d := &Delta{Table: "items", FromVersion: 1, ToVersion: 2, RootSig: []byte{1, 2, 3}}
		out := appendStr(nil, d.Table)
		out = appendU64(out, d.FromVersion)
		out = appendU64(out, d.ToVersion)
		out = appendU64(out, d.Epoch)
		out = appendU8(out, 0)
		out = appendU32(out, 2)
		out = appendU32(out, 1)
		out = appendBytes(out, d.RootSig)
		out = appendU32(out, heapPages)
		if heapPages == 0 {
			out = appendU32(out, 9) // page count after ops
			out = appendU32(out, 1) // key version
			out = appendU8(out, 2)  // scheme
			out = appendU32(out, changedPages)
		}
		return append(out, make([]byte, 1024-len(out))...)
	}
	// 250 heap pages (1,000 bytes) and 125 changed pages (1,000 bytes at the
	// least) are under the body's length but over what is left of it where
	// the count stands: the parent commit's decoder compared with the former.
	for name, body := range map[string][]byte{
		"2^31 heap pages":    hostile(1<<31, 0),
		"2^31 changed pages": hostile(0, 1<<31),
		"250 heap pages":     hostile(250, 0),
		"125 changed pages":  hostile(0, 125),
	} {
		// The least of three passes (seen once beside one of them: 4 KB as
		// the first GC cycle started).
		var err error
		got := leastAllocated(func() { _, err = DecodeDelta(body) })
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: a hostile %d-byte body got %v, want the count refused before it sizes anything", name, len(body), err)
		}
		if got > 2*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(body), got)
		}
	}
}

package wire

import (
	"bytes"
	"testing"

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

package wire

import (
	"crypto/sha256"
	"errors"

	"edgeauth/internal/storage"
)

// Delta is an incremental replica update: the pages dirtied by the ops in
// (FromVersion, ToVersion], the tree metadata they anchor to, and the
// central server's signature over the whole payload.
//
// When SnapshotNeeded is set the central server's retained changelog no
// longer covers FromVersion; every other content field is empty and the
// edge must fall back to a full snapshot.
type Delta struct {
	Table          string
	FromVersion    uint64
	ToVersion      uint64
	Epoch          uint64
	SnapshotNeeded bool

	Root      storage.PageID
	Height    uint32
	RootSig   []byte
	HeapPages []storage.PageID
	// NumPages is the pager's page count after the ops, so the edge can
	// extend its page address space before overlaying the changed pages.
	NumPages uint32
	PageIDs  []storage.PageID
	PageData [][]byte
	// KeyVersion is the signing-key version in force at ToVersion.
	KeyVersion uint32
	// Scheme is the signature scheme (sig.Scheme) of that key. It lives
	// in the signed core, so a relay cannot flip a replica to a weaker
	// interpretation of the same key version.
	Scheme uint8

	// Sig is the central server's signature over SigPayload(); edges
	// verify it with the public key before applying the delta.
	Sig []byte
}

// encodeCore serializes everything except the trailing signature — the
// bytes the signature covers.
func (d *Delta) encodeCore() []byte {
	out := appendStr(nil, d.Table)
	out = appendU64(out, d.FromVersion)
	out = appendU64(out, d.ToVersion)
	out = appendU64(out, d.Epoch)
	if d.SnapshotNeeded {
		out = appendU8(out, 1)
	} else {
		out = appendU8(out, 0)
	}
	out = appendU32(out, uint32(d.Root))
	out = appendU32(out, d.Height)
	out = appendBytes(out, d.RootSig)
	out = appendU32(out, uint32(len(d.HeapPages)))
	for _, p := range d.HeapPages {
		out = appendU32(out, uint32(p))
	}
	out = appendU32(out, d.NumPages)
	out = appendU32(out, d.KeyVersion)
	out = appendU8(out, d.Scheme)
	out = appendU32(out, uint32(len(d.PageIDs)))
	for i, id := range d.PageIDs {
		out = appendU32(out, uint32(id))
		out = appendBytes(out, d.PageData[i])
	}
	return out
}

// SigPayload is the digest the central server signs: SHA-256 over the
// core encoding, so the signature commits to every content field.
func (d *Delta) SigPayload() []byte {
	sum := sha256.Sum256(d.encodeCore())
	return sum[:]
}

// SigPayloadOfBody computes the signed digest directly from the received
// frame body the delta was decoded from: the core bytes are everything
// before the trailing signature field, so no re-serialization is needed.
func (d *Delta) SigPayloadOfBody(body []byte) ([]byte, error) {
	n := len(body) - 4 - len(d.Sig)
	if n < 0 {
		return nil, errors.New("wire: delta body shorter than its signature field")
	}
	sum := sha256.Sum256(body[:n])
	return sum[:], nil
}

// Encode serializes the delta (core + signature).
func (d *Delta) Encode() []byte {
	out := d.encodeCore()
	return appendBytes(out, d.Sig)
}

// DecodeDelta parses a Delta.
func DecodeDelta(body []byte) (*Delta, error) {
	r := &reader{data: body}
	d := &Delta{Table: r.str("table")}
	d.FromVersion = r.u64("from version")
	d.ToVersion = r.u64("to version")
	d.Epoch = r.u64("epoch")
	flag := r.u8("snapshot-needed flag")
	if r.err == nil && flag > 1 {
		// One encoding per delta: an accepted body re-encodes to itself.
		return nil, errors.New("wire: snapshot-needed flag is neither 0 nor 1")
	}
	d.SnapshotNeeded = flag == 1
	d.Root = storage.PageID(r.u32("root"))
	d.Height = r.u32("height")
	d.RootSig = r.bytes("root sig")
	hn := int(r.u32("heap page count"))
	if r.err == nil && hn > len(body) {
		return nil, errors.New("wire: implausible heap page count")
	}
	for i := 0; i < hn && r.err == nil; i++ {
		d.HeapPages = append(d.HeapPages, storage.PageID(r.u32("heap page")))
	}
	d.NumPages = r.u32("page count after ops")
	d.KeyVersion = r.u32("key version")
	d.Scheme = r.u8("signature scheme")
	pn := int(r.u32("changed page count"))
	if r.err == nil && pn > len(body) {
		return nil, errors.New("wire: implausible changed page count")
	}
	for i := 0; i < pn && r.err == nil; i++ {
		id := storage.PageID(r.u32("page id"))
		data := r.bytes("page data")
		d.PageIDs = append(d.PageIDs, id)
		d.PageData = append(d.PageData, data)
	}
	d.Sig = r.bytes("delta sig")
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

package wire

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"edgeauth/internal/sig"
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
	// PageData holds the content of PageIDs, index for index. In a delta
	// that DecodeDelta or AppendSigned produced these are views of the
	// body it was decoded from or appended to.
	PageData [][]byte
	// KeyVersion is the signing-key version in force at ToVersion.
	KeyVersion uint32
	// Scheme is the signature scheme (sig.Scheme) of that key, valid in
	// every delta but a SnapshotNeeded marker. It lives in the signed
	// core, so a relay cannot flip a replica to a weaker interpretation
	// of the same key version.
	Scheme uint8

	// Sig is the central server's signature over SigPayload(); edges
	// verify it with the public key before applying the delta.
	Sig []byte
}

// headerSize is the encoded length of everything in front of the changed
// pages: the fields up to and including the changed-page count.
func (d *Delta) headerSize() int {
	return 4 + len(d.Table) + 8 + 8 + 8 + 1 + // table, versions, epoch, flag
		4 + 4 + 4 + len(d.RootSig) + // root, height, root sig
		4 + 4*len(d.HeapPages) + // heap pages
		4 + 4 + 1 + 4 // page count after ops, key version, scheme, changed-page count
}

// coreSize is the encoded length of the signed core (header and pages).
func (d *Delta) coreSize() int {
	n := d.headerSize()
	for _, p := range d.PageData {
		n += 4 + 4 + len(p)
	}
	return n
}

// appendHeader appends the fields in front of the changed pages.
func (d *Delta) appendHeader(out []byte) []byte {
	out = appendStr(out, d.Table)
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
	return appendU32(out, uint32(len(d.PageIDs)))
}

// appendCore appends everything except the trailing signature — the
// bytes the signature covers.
func (d *Delta) appendCore(out []byte) []byte {
	out = d.appendHeader(out)
	for i, id := range d.PageIDs {
		out = appendU32(out, uint32(id))
		out = appendBytes(out, d.PageData[i])
	}
	return out
}

// SigPayload is the digest the central server signs: SHA-256 over the
// core encoding, so the signature commits to every content field.
func (d *Delta) SigPayload() []byte {
	sum := sha256.Sum256(d.appendCore(make([]byte, 0, d.coreSize())))
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

// Encode serializes the delta (core + signature) into one buffer of
// exactly its size.
func (d *Delta) Encode() []byte {
	out := d.appendCore(make([]byte, 0, d.coreSize()+4+len(d.Sig)))
	return appendBytes(out, d.Sig)
}

// DeltaSigner is the central server's signing key as AppendSigned uses
// it.
type DeltaSigner interface {
	// Len is the length of every signature Sign returns.
	Len() int
	Sign(payload []byte) (sig.Signature, error)
}

// AppendSigned is the serving side's encoder: it appends to dst the body
// of the delta that has d's fields and, as its changed pages, d.PageIDs
// read from pages, and signs it. The body is built once — dst is grown at
// most one time, to exactly the body's size; each page is copied straight
// from pages into its place; the signed digest is taken over those bytes
// where they lie — and is byte for byte what Encode returns for the same
// fields. d.PageData and d.Sig are outputs: on return the former holds
// views of the pages inside the returned body (valid until that buffer is
// reused) and the latter the signature, which makes d the struct form of
// what was appended.
func (d *Delta) AppendSigned(dst []byte, pages storage.PageReader, key DeltaSigner) ([]byte, error) {
	pageSize := pages.PageSize()
	start := len(dst)
	need := d.headerSize() + len(d.PageIDs)*(4+4+pageSize) + 4 + key.Len()
	if cap(dst)-start < need {
		dst = append(make([]byte, 0, start+need), dst...)
	}
	dst = d.appendHeader(dst)
	d.PageData = make([][]byte, len(d.PageIDs))
	for i, id := range d.PageIDs {
		page, err := pages.View(id)
		if err != nil {
			return nil, err
		}
		if len(page) != pageSize {
			return nil, fmt.Errorf("wire: page %d has %d bytes, want %d", id, len(page), pageSize)
		}
		dst = appendU32(dst, uint32(id))
		dst = appendBytes(dst, page)
		d.PageData[i] = dst[len(dst)-pageSize : len(dst) : len(dst)]
	}
	sum := sha256.Sum256(dst[start:])
	sg, err := key.Sign(sum[:])
	if err != nil {
		return nil, err
	}
	d.Sig = sg
	return appendBytes(dst, sg), nil
}

// DecodeDelta parses a Delta. The page contents are views of body, which
// the caller owns (see ReadFrame) and must not modify while it uses the
// delta; everything else is copied out. Both counts that size a slice are
// checked against the bytes left to parse before anything is allocated,
// so a body cannot make the decoder reserve more than a small multiple of
// its own length.
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
	// A heap page takes 4 bytes, a changed page at least 8 (id, length).
	if hn := r.u32("heap page count"); r.err == nil && hn > 0 {
		if uint64(hn)*4 > uint64(len(body)-r.off) {
			return nil, errors.New("wire: implausible heap page count")
		}
		d.HeapPages = make([]storage.PageID, hn)
		for i := range d.HeapPages {
			d.HeapPages[i] = storage.PageID(r.u32("heap page"))
		}
	}
	d.NumPages = r.u32("page count after ops")
	d.KeyVersion = r.u32("key version")
	d.Scheme = r.u8("signature scheme")
	if r.err == nil && !d.SnapshotNeeded && !sig.Scheme(d.Scheme).Valid() {
		return nil, fmt.Errorf("wire: delta names unknown signature scheme %d", d.Scheme)
	}
	if pn := r.u32("changed page count"); r.err == nil && pn > 0 {
		if uint64(pn)*8 > uint64(len(body)-r.off) {
			return nil, errors.New("wire: implausible changed page count")
		}
		d.PageIDs = make([]storage.PageID, pn)
		d.PageData = make([][]byte, pn)
		for i := range d.PageIDs {
			d.PageIDs[i] = storage.PageID(r.u32("page id"))
			d.PageData[i] = r.view("page data")
		}
	}
	d.Sig = r.bytes("delta sig")
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

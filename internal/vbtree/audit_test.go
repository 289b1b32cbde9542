package vbtree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// edgeLeaf returns the leftmost (or, with last, the rightmost) leaf of the
// tree.
func edgeLeaf(t testing.TB, tree *Tree, last bool) (storage.PageID, *vbLeaf) {
	t.Helper()
	pid := tree.root
	for level := tree.height; level > 1; level-- {
		n, err := tree.fetchInternal(pid)
		if err != nil {
			t.Fatal(err)
		}
		pid = n.children[0]
		if last {
			pid = n.children[len(n.children)-1]
		}
	}
	n, err := tree.fetchLeaf(pid)
	if err != nil {
		t.Fatal(err)
	}
	return pid, n
}

// TestAuditChecksWhatNoDigestCommits: a page stores more than its digests
// commit to — a leaf's keys beside their records, the leaf chain, the
// separators an internal node routes by. Each case rewrites one of those
// and leaves every stored digest as it was, so a recompute of the digests
// alone accepts the tree; the audit does not.
func TestAuditChecksWhatNoDigestCommits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, h *harness)
		want    string
	}{
		{"leaf key is not its record's", func(t *testing.T, h *harness) {
			pid, n := edgeLeaf(t, h.tree, false)
			n.keys[3] = append(bytes.Clone(n.keys[3]), 0) // between keys 3 and 4
			mustWriteLeaf(t, h.tree, pid, n)
		}, "its record key"},
		{"keys do not ascend", func(t *testing.T, h *harness) {
			pid, n := edgeLeaf(t, h.tree, false)
			n.keys[3][len(n.keys[3])-1] ^= 1 // key 3 reads as key 2
			mustWriteLeaf(t, h.tree, pid, n)
			// No answer can tell: a point read of key 3 finds nothing, and
			// its proof verifies.
			rs, w := h.query(t, Query{Lo: i64(3), Hi: i64(3)})
			if len(rs.Tuples) != 0 {
				t.Fatalf("point read of the rewritten key found %d rows", len(rs.Tuples))
			}
			h.mustVerify(t, rs, w)
		}, "does not ascend"},
		{"next skips a leaf", func(t *testing.T, h *harness) {
			pid, n := edgeLeaf(t, h.tree, false)
			second, err := h.tree.fetchLeaf(n.next)
			if err != nil {
				t.Fatal(err)
			}
			n.next = second.next
			mustWriteLeaf(t, h.tree, pid, n)
		}, "as the next leaf, but leaf"},
		{"last leaf names a next", func(t *testing.T, h *harness) {
			first, _ := edgeLeaf(t, h.tree, false)
			pid, n := edgeLeaf(t, h.tree, true)
			n.next = first
			mustWriteLeaf(t, h.tree, pid, n)
		}, "last leaf"},
		{"separator above a key on its right", func(t *testing.T, h *harness) {
			root := mustRoot(t, h.tree)
			right, err := h.tree.fetchLeaf(root.children[1])
			if err != nil {
				t.Fatal(err)
			}
			root.keys[0] = bytes.Clone(right.keys[0])
			root.keys[0][len(root.keys[0])-1]++
			mustWriteInternal(t, h.tree, h.tree.root, root)
		}, "outside the separators"},
		{"separator at a key on its left", func(t *testing.T, h *harness) {
			root := mustRoot(t, h.tree)
			left, err := h.tree.fetchLeaf(root.children[0])
			if err != nil {
				t.Fatal(err)
			}
			root.keys[0] = bytes.Clone(left.keys[len(left.keys)-1])
			mustWriteInternal(t, h.tree, h.tree.root, root)
		}, "outside the separators"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 200, 1024, false)
			if h.tree.Height() != 2 {
				t.Fatalf("height %d, want 2", h.tree.Height())
			}
			if _, err := audit(h.tree); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, h)
			if n, err := audit(h.tree); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit after the rewrite: %d tuples, %v; want an error naming %q", n, err, tc.want)
			}
		})
	}
}

func mustRoot(t *testing.T, tree *Tree) *vbInternal {
	t.Helper()
	n, err := tree.fetchInternal(tree.root)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustWriteLeaf(t *testing.T, tree *Tree, pid storage.PageID, n *vbLeaf) {
	t.Helper()
	if err := tree.writeLeaf(pid, n); err != nil {
		t.Fatal(err)
	}
}

func mustWriteInternal(t *testing.T, tree *Tree, pid storage.PageID, n *vbInternal) {
	t.Helper()
	if err := tree.writeInternal(pid, n); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRangeKeepsLeafChain: a range delete that empties leaves
// detaches them, and the leaf before them then names the leaf after them —
// at the left end, inside one leaf, across internal nodes and at the
// right end — so the chain holds exactly the tree's leaves in key order
// and the audit passes after every delete.
func TestDeleteRangeKeepsLeafChain(t *testing.T) {
	h := newHarness(t, 2000, 1024, false)
	if h.tree.Height() < 3 {
		t.Fatalf("height %d, want at least 3", h.tree.Height())
	}
	left := 2000
	for _, r := range [][2]int{{0, 100}, {1450, 1460}, {500, 1400}, {1900, -1}, {200, 499}, {101, 150}} {
		lo, hi := i64(r[0]), i64(r[1])
		if r[1] < 0 {
			hi = nil
		}
		n, err := h.tree.DeleteRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		left -= n
		if got, err := audit(h.tree); err != nil || got != left {
			t.Fatalf("after deleting %v: audit %d tuples, %v; want %d", r, got, err, left)
		}
		all, err := liveView(t, h.tree, false).ScanAll()
		if err != nil || len(all) != left {
			t.Fatalf("after deleting %v: the leaf chain yields %d tuples, %v; want %d", r, len(all), err, left)
		}
	}
}

// overlay is a page space with one page replaced.
type overlay struct {
	pages map[storage.PageID][]byte
	id    storage.PageID
	page  []byte
}

func (o *overlay) PageSize() int { return len(o.page) }

func (o *overlay) View(id storage.PageID) ([]byte, error) {
	if id == o.id {
		return o.page, nil
	}
	if p, ok := o.pages[id]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("no page %d", id)
}

// FuzzViewAudit audits a small honest tree with the bytes of one of its
// pages overwritten, as a replica would audit pages a peer sent it. The
// audit never panics; when it passes, the root it recomputes is the honest
// root and a full scan yields the honest tuples.
func FuzzViewAudit(f *testing.F) {
	const pageSize = 1024
	tree := buildEd25519(f, 100, pageSize)
	if tree.Height() != 2 {
		f.Fatalf("seed tree height %d, want 2", tree.Height())
	}
	pages := make(map[storage.PageID][]byte)
	for id := 1; id < tree.bp.Pager().NumPages(); id++ {
		buf, err := tree.bp.View(storage.PageID(id))
		if err != nil {
			f.Fatal(err)
		}
		pages[storage.PageID(id)] = bytes.Clone(buf)
	}
	// The audit ships no VO: the root digest stands in for the signature.
	anchor := TableState{Root: tree.root, Height: tree.height, RootSig: sig.Signature(tree.RootDigest())}
	honestRoot := tree.RootDigest()
	honest, err := liveView(f, tree, false).ScanAll()
	if err != nil {
		f.Fatal(err)
	}

	first, leaf := edgeLeaf(f, tree, false)
	last, lastLeaf := edgeLeaf(f, tree, true)
	keyEnd := vbLeafHeader + len(leaf.groups) + 2 + len(leaf.keys[0]) // just past key 0
	f.Add(uint32(first), uint16(keyEnd-1), []byte{leaf.keys[0][len(leaf.keys[0])-1] ^ 1})
	f.Add(uint32(first), uint16(1), []byte{0, 0, 0, byte(last)})
	f.Add(uint32(last), uint16(lastLeaf.encodedSize()+1), []byte{0xFF})

	f.Fuzz(func(t *testing.T, pid uint32, off uint16, data []byte) {
		id := storage.PageID(pid)
		base, ok := pages[id]
		if !ok {
			return
		}
		page := bytes.Clone(base)
		copy(page[int(off)%pageSize:], data)
		v, err := anchor.ViewOver(&overlay{pages: pages, id: id, page: page}, tree.sch, tree.acc, tree.pub)
		if err != nil {
			t.Fatal(err)
		}
		n, root, err := v.Audit()
		if err != nil {
			return
		}
		if !root.Equal(honestRoot) {
			t.Fatalf("audit passed %d tuples under root %x, the honest root is %x", n, root, honestRoot)
		}
		got, err := v.ScanAll()
		if err != nil {
			t.Fatalf("audit passed but a scan fails: %v", err)
		}
		if n != len(honest) || !sameTuples(got, honest) {
			t.Fatalf("audit passed %d tuples, a scan yields %d that are not the honest %d", n, len(got), len(honest))
		}
	})
}

func sameTuples(a, b []*vo.StoredTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].EncodeBytes(), b[i].EncodeBytes()) {
			return false
		}
	}
	return true
}

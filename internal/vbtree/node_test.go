package vbtree

import (
	"bytes"
	"testing"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
)

// buildEd25519 builds an Ed25519 tree over n sequential tuples at fill
// 1.0 on pages of the given size.
func buildEd25519(t testing.TB, n, pageSize int) *Tree {
	t.Helper()
	k := schemeKey(t, sig.SchemeEd25519)
	mem, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := storage.NewBufferPool(mem, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := storage.NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]schema.Tuple, n)
	for i := range tuples {
		tuples[i] = mkTuple(i)
	}
	tree, err := Build(Config{
		Pool: bp, Heap: heap, Schema: testSchema(), Acc: digest.MustNew(digest.DefaultParams()),
		Pub: k.Public(),
	}, tuples, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// fullest returns the most entries in any leaf and the most children of
// any internal node of the tree.
func fullest(t testing.TB, tree *Tree) (leaf, internal int) {
	t.Helper()
	var walk func(pid storage.PageID)
	walk = func(pid storage.PageID) {
		pt, err := tree.pageType(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pt == storage.PageVBLeaf {
			n, err := tree.fetchLeaf(pid)
			if err != nil {
				t.Fatal(err)
			}
			leaf = max(leaf, len(n.keys))
			return
		}
		n, err := tree.fetchInternal(pid)
		if err != nil {
			t.Fatal(err)
		}
		internal = max(internal, len(n.children))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tree.Root())
	return leaf, internal
}

// TestCapacityFormulasMatchBuild ties formula (6) and the leaf capacity
// to the pages: Stats reports MaxLeafEntries and MaxInternalFanOut, and
// they are exactly the entries of the fullest leaf and the children of
// the fullest internal node Build packs at fill 1.0 — group digests and
// all. The trees are big enough that some internal node is full.
func TestCapacityFormulasMatchBuild(t *testing.T) {
	for _, tc := range []struct {
		pageSize, rows int
		leaf, fanOut   int
	}{
		{1024, 2_000, 24, 26},
		{4096, 15_000, 96, 102},
	} {
		tree := buildEd25519(t, tc.rows, tc.pageSize)
		keyLen := len(schema.Int64(0).KeyBytes())
		st, err := stats(tree, keyLen)
		if err != nil {
			t.Fatal(err)
		}
		leaf, internal := fullest(t, tree)
		if st.MaxLeafEntries != leaf || st.MaxInternalFanOut != internal {
			t.Errorf("%d-byte pages, %d-byte keys: Stats says %d leaf entries and fan-out %d, Build packs %d and %d",
				tc.pageSize, keyLen, st.MaxLeafEntries, st.MaxInternalFanOut, leaf, internal)
		}
		if leaf != tc.leaf || internal != tc.fanOut {
			t.Errorf("%d-byte pages: Build packs %d leaf entries and %d children, pinned %d and %d",
				tc.pageSize, leaf, internal, tc.leaf, tc.fanOut)
		}
	}
}

// FuzzNodePage feeds arbitrary page-sized bytes to the node parser, as an
// edge does with the pages of a peer's snapshot or delta. It must never
// panic, and a page it accepts must re-encode and decode back to the same
// keys, record ids, digests and group digests.
func FuzzNodePage(f *testing.F) {
	const pageSize = 1024
	tree := buildEd25519(f, 200, pageSize)
	rootType, err := tree.pageType(tree.Root())
	if err != nil || rootType != storage.PageVBInternal {
		f.Fatalf("seed tree root is not an internal node (%v)", err)
	}
	root, err := tree.fetchInternal(tree.Root())
	if err != nil {
		f.Fatal(err)
	}
	for _, pid := range []storage.PageID{tree.Root(), root.children[0]} {
		buf, err := tree.bp.View(pid)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(storage.PageVBLeaf), 0, 0, 0, 0, 0, 9})
	f.Add([]byte{byte(storage.PageVBInternal), 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, pageSize)
		copy(page, data)
		if n, err := decodeVBLeaf(page); err == nil {
			again := make([]byte, pageSize)
			if err := n.encode(again); err != nil {
				t.Fatalf("accepted leaf does not re-encode: %v", err)
			}
			m, err := decodeVBLeaf(again)
			if err != nil {
				t.Fatalf("re-encoded leaf does not decode: %v", err)
			}
			if m.next != n.next || !sameEntries(n.keys, m.keys) || !sameEntries(n.digests, m.digests) ||
				!bytes.Equal(n.groups, m.groups) || len(n.rids) != len(m.rids) {
				t.Fatal("leaf changed across re-encoding")
			}
			for i := range n.rids {
				if n.rids[i] != m.rids[i] {
					t.Fatalf("leaf record id %d changed across re-encoding", i)
				}
			}
		}
		if n, err := decodeVBInternal(page); err == nil {
			again := make([]byte, pageSize)
			if err := n.encode(again); err != nil {
				t.Fatalf("accepted internal node does not re-encode: %v", err)
			}
			m, err := decodeVBInternal(again)
			if err != nil {
				t.Fatalf("re-encoded internal node does not decode: %v", err)
			}
			if !sameEntries(n.keys, m.keys) || !sameEntries(n.digests, m.digests) || !bytes.Equal(n.groups, m.groups) ||
				len(n.children) != len(m.children) || len(n.children) != len(n.keys)+1 {
				t.Fatal("internal node changed across re-encoding")
			}
			for i := range n.children {
				if n.children[i] != m.children[i] {
					t.Fatalf("child %d changed across re-encoding", i)
				}
			}
		}
	})
}

func sameEntries[E ~[]byte](a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

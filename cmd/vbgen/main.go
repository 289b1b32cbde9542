// Command vbgen generates an authenticated database on disk: a page file
// holding the table heap and its VB-tree, a metadata file (tree root,
// height, signed root digest, schema), and the public key needed to
// verify query results. It then re-opens the files, audits every digest,
// and runs a sample verified query — proving the on-disk artifact is a
// self-contained verifiable replica.
//
// Usage:
//
//	vbgen -out /tmp/vbdb -rows 10000 [-scheme rsa|rsa-merkle|ed25519]
//	      [-keybits 1024] [-pagesize 4096]
//
// -scheme selects the signature scheme and commitment mode (same
// vocabulary as centrald): "rsa" signs every digest individually;
// "rsa-merkle" and "ed25519" sign only the root, leaving interior
// digests as hash-only Merkle commitments. The scheme travels in the
// public-key blob, so the re-open path needs no extra configuration.
// -keybits sizes the RSA modulus and is ignored for ed25519.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

func main() {
	var (
		out     = flag.String("out", "vbdb", "output directory")
		rows    = flag.Int("rows", 10_000, "table size")
		scheme  = flag.String("scheme", "rsa", "signature scheme: rsa, rsa-merkle or ed25519")
		keyBits = flag.Int("keybits", 1024, "RSA signing key size (ignored for ed25519)")
		pageSz  = flag.Int("pagesize", 4096, "page/node size")
	)
	flag.Parse()
	log.SetPrefix("vbgen: ")

	sigScheme, err := sig.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	pagePath := filepath.Join(*out, "pages.db")
	metaPath := filepath.Join(*out, "meta.bin")
	pubPath := filepath.Join(*out, "key.pub")

	// Build on a disk pager.
	key, err := sig.Generate(sigScheme, *keyBits)
	if err != nil {
		log.Fatal(err)
	}
	pager, err := storage.CreateDiskPager(pagePath, *pageSz)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := storage.NewBufferPool(pager, 1<<18)
	if err != nil {
		log.Fatal(err)
	}
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		log.Fatal(err)
	}
	spec := workload.DefaultSpec(*rows)
	sch, err := spec.Schema()
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		log.Fatal(err)
	}
	acc := digest.MustNew(digest.DefaultParams())
	start := time.Now()
	tree, err := vbtree.Build(vbtree.Config{
		Pool: pool, Heap: heap, Schema: sch, Acc: acc,
		Signer: key, Pub: key.Public(), BuildParallelism: 8,
	}, tuples, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		log.Fatal(err)
	}
	log.Printf("built VB-tree over %d tuples in %v (%d pages on disk)",
		*rows, time.Since(start).Round(time.Millisecond), pager.NumPages())

	// Persist metadata (a snapshot without page payloads) and the key.
	meta := &wire.Snapshot{
		Schema:    sch,
		Scheme:    uint8(sigScheme),
		Root:      tree.Root(),
		Height:    uint32(tree.Height()),
		RootSig:   tree.RootSig(),
		PageSize:  uint32(*pageSz),
		HeapPages: heap.Pages(),
	}
	if err := os.WriteFile(metaPath, meta.Encode(), 0o644); err != nil {
		log.Fatal(err)
	}
	pubBlob, err := key.Public().MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(pubPath, pubBlob, 0o644); err != nil {
		log.Fatal(err)
	}
	if err := pager.Close(); err != nil {
		log.Fatal(err)
	}

	// Re-open from disk and audit — the consumer's view.
	reopened, err := openFromDisk(pagePath, metaPath, pubPath)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	n, err := reopened.tree.Audit()
	if err != nil {
		log.Fatalf("audit FAILED: %v", err)
	}
	log.Printf("audit passed: %d tuples, every digest verified, in %v", n, time.Since(start).Round(time.Millisecond))

	// Sample verified query.
	lo, hi := schema.Int64(int64(*rows/4)), schema.Int64(int64(*rows/4+9))
	rs, w, err := reopened.tree.RunQuery(context.Background(), vbtree.Query{Lo: &lo, Hi: &hi})
	if err != nil {
		log.Fatal(err)
	}
	ver := &verify.Verifier{Key: reopened.pub, Acc: reopened.acc, Schema: reopened.sch}
	if err := ver.Verify(rs, w); err != nil {
		log.Fatalf("sample query verification FAILED: %v", err)
	}
	fmt.Printf("vbgen: wrote %s (pages), %s (metadata), %s (public key)\n", pagePath, metaPath, pubPath)
	fmt.Printf("vbgen: sample query [%d,%d] returned %d verified tuples (VO: %d digests, %d bytes)\n",
		*rows/4, *rows/4+9, len(rs.Tuples), w.NumDigests(), w.WireSize())
}

type reopenedDB struct {
	tree *vbtree.Tree
	sch  *schema.Schema
	acc  *digest.Accumulator
	pub  *sig.PublicKey
}

func openFromDisk(pagePath, metaPath, pubPath string) (*reopenedDB, error) {
	metaBlob, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, err
	}
	meta, err := wire.DecodeSnapshot(metaBlob)
	if err != nil {
		return nil, err
	}
	pubBlob, err := os.ReadFile(pubPath)
	if err != nil {
		return nil, err
	}
	pub := &sig.PublicKey{}
	if err := pub.UnmarshalBinary(pubBlob); err != nil {
		return nil, err
	}
	pager, err := storage.OpenDiskPager(pagePath)
	if err != nil {
		return nil, err
	}
	pool, err := storage.NewBufferPool(pager, 1<<18)
	if err != nil {
		return nil, err
	}
	heap, err := storage.OpenHeapFile(pool, meta.HeapPages)
	if err != nil {
		return nil, err
	}
	acc := digest.MustNew(digest.DefaultParams())
	tree, err := vbtree.Open(vbtree.Config{
		Pool: pool, Heap: heap, Schema: meta.Schema, Acc: acc, Pub: pub,
	}, meta.Root, int(meta.Height), meta.RootSig)
	if err != nil {
		return nil, err
	}
	return &reopenedDB{tree: tree, sch: meta.Schema, acc: acc, pub: pub}, nil
}

// Command vbgen generates an authenticated database on disk: a page file
// holding the table heap and its VB-tree, a metadata file (tree root,
// height, signed root digest, schema), and the public key needed to
// verify query results. It then re-opens the files, audits every digest,
// and runs a sample verified query — proving the on-disk artifact is a
// self-contained verifiable replica.
//
// Usage:
//
//	vbgen -out /tmp/vbdb -rows 10000 [-scheme ed25519|rsa-merkle]
//	      [-keybits 1024] [-pagesize 4096]
//
// -scheme selects the signature scheme of the one signature, over the
// root (same vocabulary as centrald): "ed25519" (the default) or
// "rsa-merkle". The scheme travels in the public-key blob, so the
// re-open path needs no extra configuration.
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
		scheme  = flag.String("scheme", "ed25519", "signature scheme: ed25519 or rsa-merkle")
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
	n, err := reopened.audit()
	if err != nil {
		log.Fatalf("audit FAILED: %v", err)
	}
	log.Printf("audit passed: %d tuples, every digest verified, in %v", n, time.Since(start).Round(time.Millisecond))

	// Sample verified query.
	lo, hi := schema.Int64(int64(*rows/4)), schema.Int64(int64(*rows/4+9))
	rs, w, err := reopened.view.RunQuery(context.Background(), vbtree.Query{Lo: &lo, Hi: &hi})
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

// reopenedDB is a database read back from disk: a read view of its pages,
// anchored at the root signature its metadata holds.
type reopenedDB struct {
	view    *vbtree.View
	rootSig sig.Signature
	sch     *schema.Schema
	acc     *digest.Accumulator
	pub     *sig.PublicKey
}

// openFromDisk reads a database's metadata and key and opens a view of
// its pages. A heap written under another commitment than this build's
// is refused here, by the version its first record names
// (vo.ErrCommitmentVersion), not by the first audit or query that would
// read a digest this build does not compute.
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
	acc := digest.MustNew(digest.DefaultParams())
	st := vbtree.TableState{Root: meta.Root, Height: int(meta.Height), RootSig: meta.RootSig}
	view, err := st.ViewOver(pool, meta.Schema, acc, pub)
	if err != nil {
		return nil, err
	}
	if _, err := view.Tuples(nil, nil).Next(1); err != nil {
		return nil, err
	}
	return &reopenedDB{view: view, rootSig: meta.RootSig, sch: meta.Schema, acc: acc, pub: pub}, nil
}

// audit recomputes every digest on the database's pages and checks the
// root it gets against the root signature. It returns the tuple count.
func (db *reopenedDB) audit() (int, error) {
	n, root, err := db.view.Audit()
	if err != nil {
		return n, err
	}
	if err := db.pub.Verify(db.rootSig, root); err != nil {
		return n, fmt.Errorf("root signature does not match the recomputed root digest: %w", err)
	}
	return n, nil
}

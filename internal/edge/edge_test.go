package edge

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/digest"
	"edgeauth/internal/rpc"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

func serverKey(t testing.TB) *sig.PrivateKey {
	t.Helper()
	keyOnce.Do(func() { testKey = sig.MustGenerate(sig.SchemeRSAMerkle, 512) })
	return testKey
}

// startCentral brings up a central server with one table on loopback.
func startCentral(t *testing.T, rows int) (*central.Server, string) {
	t.Helper()
	srv, err := central.NewServerWithKey(central.Options{PageSize: 1024}, serverKey(t))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec(rows)
	sch, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTable(sch, tuples); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// runQuery queries shard 0 — the whole table, in the one-shard tables
// most tests here build.
func runQuery(ctx context.Context, eg *Server, table string, q vbtree.Query) (*vo.ResultSet, *vo.VO, error) {
	rs, w, _, err := eg.RunShardQuery(ctx, table, 0, q)
	return rs, w, err
}

func TestPullAndQueryLocally(t *testing.T) {
	srv, addr := startCentral(t, 150)
	eg := New(addr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eg.Tables(); len(got) != 1 || got[0] != "items" {
		t.Fatalf("Tables = %v", got)
	}
	lo, hi := schema.Int64(10), schema.Int64(29)
	rs, w, sm, err := eg.RunShardQuery(context.Background(), "items", 0, vbtree.Query{Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 20 {
		t.Fatalf("got %d tuples", len(rs.Tuples))
	}
	// The replica's answers verify against the central key: the signed
	// one-shard map, and the VO anchored at the root digest it pins.
	sch, err := eg.Schema("items")
	if err != nil {
		t.Fatal(err)
	}
	ver := &verify.Verifier{
		Key:    srv.PublicKey(),
		Acc:    srv.Accumulator(),
		Schema: sch,
	}
	if err := ver.VerifyShardMap(sm, "items"); err != nil {
		t.Fatalf("edge replica's shard map failed verification: %v", err)
	}
	if len(sm.Map.Shards) != 1 {
		t.Fatalf("plain table has %d shards, want 1", len(sm.Map.Shards))
	}
	if err := ver.VerifyAnchored(rs, w, sm.Map.Shards[0].RootDigest); err != nil {
		t.Fatalf("edge replica answer failed verification: %v", err)
	}
}

func TestInstallStoreValidation(t *testing.T) {
	if _, err := installStore(&wire.Snapshot{PageSize: 8}); err == nil {
		t.Fatal("tiny page size accepted")
	}
	srv, _ := startCentral(t, 30)
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A page ID the snapshot's own page count cannot justify (pages are
	// not signed, so a relay could splice one in).
	last := len(snap.PageIDs) - 1
	id := snap.PageIDs[last]
	snap.PageIDs[last] = 1 << 30
	if _, err := installStore(snap); err == nil {
		t.Fatal("sparse page ID accepted")
	}
	snap.PageIDs[last] = id
	// Corrupt page length.
	snap.PageData[0] = snap.PageData[0][:10]
	if _, err := installStore(snap); err == nil {
		t.Fatal("short page accepted")
	}
}

// TestQueryOverOverclaimedHeapPageFails: a snapshot's pages are not
// signed one by one — the map pins the root signature, not the pages — so
// a peer can ship a heap page whose header claims more slots than the page
// holds, and a leaf naming a slot past the page. A query reaching that
// record must fail, not read past the page and take the edge down.
func TestQueryOverOverclaimedHeapPageFails(t *testing.T) {
	ctx := context.Background()
	srv, _ := startCentral(t, 60)
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	page := func(id storage.PageID) []byte {
		for i := range snap.PageIDs {
			if snap.PageIDs[i] == id {
				snap.PageData[i] = bytes.Clone(snap.PageData[i])
				return snap.PageData[i]
			}
		}
		t.Fatalf("snapshot carries no page %d", id)
		return nil
	}
	// The first entry of a leaf: header, group digests, then
	// keyLen(2) key rid(6), the rid a page ID and a slot.
	var leaf []byte
	for i, data := range snap.PageData {
		if storage.PageType(data[0]) == storage.PageVBLeaf {
			leaf = page(snap.PageIDs[i])
			break
		}
	}
	if leaf == nil {
		t.Fatal("snapshot carries no leaf")
	}
	off := 1 + 4 + 2 + digest.StoredBytes(int(binary.BigEndian.Uint16(leaf[5:7])))
	off += 2 + int(binary.BigEndian.Uint16(leaf[off:]))
	heap := page(storage.PageID(binary.BigEndian.Uint32(leaf[off:])))
	binary.BigEndian.PutUint16(leaf[off+4:], 300)
	binary.BigEndian.PutUint16(heap[2:4], 0xFFFF)

	store, err := installStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	rep := &replica{sch: snap.Schema}
	sr, err := rep.pinCurrent(store)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.snap.Release()
	if _, _, err := sr.view.AppendAnswer(ctx, vbtree.Query{}, nil); err == nil {
		t.Fatal("a query over a record in slot 300 of a 1 KiB page succeeded")
	}
}

func TestReplicaIsolationFromCentral(t *testing.T) {
	srv, addr := startCentral(t, 60)
	eg := New(addr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Mutate the central copy; the edge replica must be unaffected until
	// it re-pulls (snapshot semantics, not shared state).
	lo := schema.Int64(0)
	hi := schema.Int64(9)
	if _, err := srv.DeleteRange("items", &lo, &hi); err != nil {
		t.Fatal(err)
	}
	rs, _, err := runQuery(context.Background(), eg, "items", vbtree.Query{Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 10 {
		t.Fatalf("replica saw central's delete without a pull: %d tuples", len(rs.Tuples))
	}
	if err := eg.Pull(context.Background(), "items"); err != nil {
		t.Fatal(err)
	}
	rs, _, err = runQuery(context.Background(), eg, "items", vbtree.Query{Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 0 {
		t.Fatalf("after pull, deleted tuples still visible: %d", len(rs.Tuples))
	}
}

func TestUnknownTableErrors(t *testing.T) {
	_, addr := startCentral(t, 10)
	eg := New(addr)
	if err := eg.Pull(context.Background(), "ghost"); err == nil {
		t.Fatal("pull of unknown table succeeded")
	}
	if _, _, err := runQuery(context.Background(), eg, "ghost", vbtree.Query{}); err == nil {
		t.Fatal("query of unreplicated table succeeded")
	}
	if _, err := eg.Schema("ghost"); err == nil {
		t.Fatal("schema of unreplicated table succeeded")
	}
}

func TestUnreachableCentral(t *testing.T) {
	eg := New("127.0.0.1:1") // nothing listens there
	if err := eg.PullAll(context.Background()); err == nil {
		t.Fatal("PullAll against dead central succeeded")
	}
	if err := eg.Pull(context.Background(), "items"); err == nil {
		t.Fatal("Pull against dead central succeeded")
	}
}

func TestTamperHookAppliesAndClears(t *testing.T) {
	_, addr := startCentral(t, 80)
	eg := New(addr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls := 0
	eg.SetTamper(func(rs *vo.ResultSet, w *vo.VO) error {
		calls++
		return nil
	})
	lo, hi := schema.Int64(1), schema.Int64(5)
	if _, _, err := runQuery(context.Background(), eg, "items", vbtree.Query{Lo: &lo, Hi: &hi}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("tamper hook called %d times", calls)
	}
	eg.SetTamper(nil)
	if _, _, err := runQuery(context.Background(), eg, "items", vbtree.Query{Lo: &lo, Hi: &hi}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("cleared tamper hook still firing")
	}
}

func TestServeProtocolDispatch(t *testing.T) {
	_, addr := startCentral(t, 50)
	eg := New(addr)
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go eg.Serve(ln)
	t.Cleanup(func() { eg.Close() })

	conn := rpc.New(ln.Addr().String(), rpc.Options{})
	defer conn.Close()
	ctx := context.Background()

	// List tables.
	body, err := conn.Call(ctx, wire.MsgListTablesReq, nil, wire.MsgListTablesResp, true)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	names, err := wire.DecodeStringList(body)
	if err != nil || len(names) != 1 {
		t.Fatalf("names = %v, %v", names, err)
	}

	// A message the edge does not serve — a central-only request, and a
	// type this build does not define — gets a typed error frame, and the
	// connection stays usable.
	for _, mt := range []wire.MsgType{wire.MsgBatchReq, wire.MsgType(200)} {
		if _, err := conn.Call(ctx, mt, []byte("items"), wire.MsgBatchResp, true); !errors.Is(err, wire.ErrUnsupported) {
			t.Fatalf("%v: %v, want wire.ErrUnsupported", mt, err)
		}
	}
	if _, err := conn.Call(ctx, wire.MsgListTablesReq, nil, wire.MsgListTablesResp, true); err != nil {
		t.Fatalf("connection unusable after error frame: %v", err)
	}
}

package central

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/wal"
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

func newServer(t *testing.T, rows int, walDir string) *Server {
	t.Helper()
	srv, err := NewServerWithKey(Options{PageSize: 1024, WALDir: walDir}, serverKey(t))
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
	return srv
}

// rowsIn reads the rows of table with keys in [lo, hi] (nil =
// unbounded) through scanTuples.
func rowsIn(t *testing.T, srv *Server, table string, lo, hi *schema.Datum) []schema.Tuple {
	t.Helper()
	tb, err := srv.table(table)
	if err != nil {
		t.Fatal(err)
	}
	all, err := scanTuples(tb)
	if err != nil {
		t.Fatal(err)
	}
	var out []schema.Tuple
	for _, tup := range all {
		k := tup.Key(tb.sch)
		if (lo == nil || k.Compare(*lo) >= 0) && (hi == nil || k.Compare(*hi) <= 0) {
			out = append(out, tup)
		}
	}
	return out
}

func mkTuple(t *testing.T, srv *Server, id int) schema.Tuple {
	t.Helper()
	resp, err := srv.SchemaResponse("items")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(resp.Schema.Columns))
	vals[0] = schema.Int64(int64(id))
	for i := 1; i < len(vals); i++ {
		vals[i] = schema.Str("vvvvvvvvvvvvvvvvvvvv")
	}
	return schema.Tuple{Values: vals}
}

func TestAddTableAndVersioning(t *testing.T) {
	srv := newServer(t, 100, "")
	if got := srv.Tables(); len(got) != 1 || got[0] != "items" {
		t.Fatalf("Tables = %v", got)
	}
	if _, err := srv.Version("ghost"); err == nil {
		t.Fatal("version of unknown table succeeded")
	}
	v0, err := srv.Version("items")
	if err != nil || v0 != 0 {
		t.Fatalf("initial version = %d, %v", v0, err)
	}
	if err := srv.Insert("items", mkTuple(t, srv, 5000)); err != nil {
		t.Fatal(err)
	}
	v1, _ := srv.Version("items")
	if v1 != 1 {
		t.Fatalf("version after insert = %d", v1)
	}
	n, err := srv.DeleteRange("items", dptr(10), dptr(19))
	if err != nil || n != 10 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	v2, _ := srv.Version("items")
	if v2 != 2 {
		t.Fatalf("version after delete = %d", v2)
	}
	// A no-op delete does not bump the version.
	if _, err := srv.DeleteRange("items", dptr(10), dptr(19)); err != nil {
		t.Fatal(err)
	}
	if v3, _ := srv.Version("items"); v3 != 2 {
		t.Fatalf("version after no-op delete = %d", v3)
	}
}

func dptr(v int) *schema.Datum {
	d := schema.Int64(int64(v))
	return &d
}

func TestDuplicateTableRejected(t *testing.T) {
	srv := newServer(t, 10, "")
	spec := workload.DefaultSpec(10)
	sch, _ := spec.Schema()
	tuples, _ := spec.Tuples()
	if err := srv.AddTable(sch, tuples); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestWALRecordsUpdates(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(t, 50, dir)
	if err := srv.Insert("items", mkTuple(t, srv, 900)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DeleteRange("items", dptr(1), dptr(3)); err != nil {
		t.Fatal(err)
	}
	srv.Close() // closes the logs

	var types []wal.RecordType
	if err := wal.ReplayAll(filepath.Join(dir, walName("items", 1)), func(r wal.Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A single insert is a batch of one: the record is a RecBatch.
	if len(types) != 2 || types[0] != wal.RecBatch || types[1] != wal.RecDelete {
		t.Fatalf("WAL records = %v", types)
	}
}

// TestNegativeOptionsRefused: out-of-range option values are rejected
// with an error naming the field, not silently mapped to some mode.
func TestNegativeOptionsRefused(t *testing.T) {
	for field, opts := range map[string]Options{
		"MaxBatch":       {MaxBatch: -1},
		"DeltaRetention": {DeltaRetention: -1},
	} {
		if _, err := NewServerWithKey(opts, batchServerKey(t)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Options{%s: -1}: err = %v, want a refusal naming the field", field, err)
		}
	}
}

func TestSnapshotRoundTripContent(t *testing.T) {
	srv := newServer(t, 120, "")
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema.Table != "items" || snap.Height < 2 {
		t.Fatalf("snapshot meta: %+v", snap.Schema.Table)
	}
	if len(snap.PageIDs) == 0 || len(snap.PageIDs) != len(snap.PageData) {
		t.Fatalf("snapshot pages: %d ids, %d blobs", len(snap.PageIDs), len(snap.PageData))
	}
	for i, d := range snap.PageData {
		if len(d) != int(snap.PageSize) {
			t.Fatalf("page %d has %d bytes", snap.PageIDs[i], len(d))
		}
	}
	if _, err := srv.ShardSnapshot("ghost", 0); err == nil {
		t.Fatal("snapshot of unknown table succeeded")
	}
}

func TestMaterializeJoinValidation(t *testing.T) {
	srv := newServer(t, 20, "")
	if err := srv.MaterializeJoin("v", "ghost", "items", "id", "id"); err == nil {
		t.Fatal("join with unknown left table accepted")
	}
	if err := srv.MaterializeJoin("v", "items", "ghost", "id", "id"); err == nil {
		t.Fatal("join with unknown right table accepted")
	}
	// A self-join works: the right side's columns are prefixed with the
	// table name, and the wide view tuples spill into heap overflow pages.
	if err := srv.MaterializeJoin("selfjoin", "items", "items", "id", "id"); err != nil {
		t.Fatalf("self-join rejected: %v", err)
	}
	lo, hi := schema.Int64(0), schema.Int64(5)
	rows := rowsIn(t, srv, "selfjoin", &lo, &hi)
	if len(rows) != 6 {
		t.Fatalf("self-join view holds %d rows in [0,5], want 6", len(rows))
	}
	// Each view row: rowid + 10 left cols + 10 right prefixed cols.
	if got := len(rows[0].Values); got != 21 {
		t.Fatalf("view row has %d columns, want 21", got)
	}
}

func TestKeyValidityStamping(t *testing.T) {
	srv := newServer(t, 10, "")
	srv.SetKeyValidity(9, 100, 200)
	pk := srv.PublicKey()
	if pk.Version != 9 || pk.NotBefore != 100 || pk.NotAfter != 200 {
		t.Fatalf("stamped key: %+v", pk)
	}
	resp, err := srv.SchemaResponse("items")
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeyVersion != 9 {
		t.Fatalf("schema response key version = %d", resp.KeyVersion)
	}
}

// TestConcurrentQueriesAndUpdates races the central's read path — edge
// snapshot pulls, each served from a pinned version — against inserts:
// every pull is a whole page image of one version, versions never go
// backwards, and the table ends with every row.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	srv := newServer(t, 400, "")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 10; i++ {
				snap, err := srv.ShardSnapshot("items", 0)
				if err != nil {
					errs <- err
					return
				}
				if len(snap.PageIDs) == 0 || len(snap.PageIDs) != len(snap.PageData) {
					errs <- fmt.Errorf("pull %d: %d page ids, %d page blobs", i, len(snap.PageIDs), len(snap.PageData))
					return
				}
				if snap.Version < last {
					errs <- fmt.Errorf("pull %d went back from v%d to v%d", i, last, snap.Version)
					return
				}
				last = snap.Version
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := srv.Insert("items", mkTuple(t, srv, 10000+i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := scanCount(t, srv); n != 410 {
		t.Fatalf("final count = %d, want 410", n)
	}
	snap, err := srv.ShardSnapshot("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := srv.Version("items"); snap.Version != v {
		t.Fatalf("final pull at v%d, table at v%d", snap.Version, v)
	}
}

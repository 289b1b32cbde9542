package edge

import (
	"bytes"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// FuzzDecodeSnapshot covers the snapshot response — the one replication
// payload that is not whole-body signed, so everything but its root
// signature reaches installStore exactly as a relay chose to send it.
// Seeds are what wire.NewSnapshot builds under each signature scheme,
// before and after a commit.
// Invariants: no panics; an accepted input re-encodes byte for byte; and
// installStore on it either errors or publishes a store whose anchor
// validates.
func FuzzDecodeSnapshot(f *testing.F) {
	spec := workload.DefaultSpec(6)
	sch, err := spec.Schema()
	if err != nil {
		f.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		f.Fatal(err)
	}
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		key, err := sig.Generate(scheme, 512)
		if err != nil {
			f.Fatal(err)
		}
		srv, err := central.NewServerWithKey(central.Options{PageSize: 512}, key)
		if err != nil {
			f.Fatal(err)
		}
		if err := srv.AddTable(sch, tuples); err != nil {
			f.Fatal(err)
		}
		// The table as built, and after one committed insert: a later
		// version whose pages the commit rewrote.
		for round := 0; round < 2; round++ {
			if round == 1 {
				vals := append([]schema.Datum(nil), tuples[0].Values...)
				vals[0] = schema.Int64(1_000)
				if err := srv.Insert("items", schema.Tuple{Values: vals}); err != nil {
					f.Fatal(err)
				}
			}
			snap, err := srv.ShardSnapshot("items", 0)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap.Encode())
		}
		srv.Close()
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := wire.DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(snap.Encode(), data) {
			t.Fatal("snapshot round-trip mismatch")
		}
		store, err := installStore(snap)
		if err != nil {
			return
		}
		st, err := storeState(store)
		if err != nil {
			t.Fatalf("installed store has no anchor: %v", err)
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("installed store's anchor does not validate: %v", err)
		}
	})
}

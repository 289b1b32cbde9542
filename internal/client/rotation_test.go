package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
	"edgeauth/internal/workload"
)

// freshDeploy is deploy with a private (non-shared) signing key of
// opts.Scheme, so tests may rotate it without contaminating the package's
// shared key.
func freshDeploy(t *testing.T, rows int, opts central.Options) *deployment {
	t.Helper()
	scheme := opts.Scheme
	if scheme == 0 {
		scheme = sig.SchemeEd25519 // what NewServer picks for a zero Options
	}
	key, err := sig.Generate(scheme, 512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := central.NewServerWithKey(opts, key)
	if err != nil {
		t.Fatal(err)
	}
	return startDeployment(t, srv, rows, func(l net.Listener) net.Listener { return l })
}

func rotationRow(t testing.TB, id int64) schema.Tuple {
	t.Helper()
	sch, err := workload.DefaultSpec(1).Schema()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]schema.Datum, len(sch.Columns))
	vals[0] = schema.Int64(id)
	for i := 1; i < len(vals); i++ {
		vals[i] = schema.Str(fmt.Sprintf("rotation-payload-%04d", id))
	}
	return schema.Tuple{Values: vals}
}

// TestQuerySurvivesKeyRotation is the regression test for the
// ErrTampered-forever bug: after the central server rotates its signing
// key version, responses carry a key version the client has never seen.
// The client must refetch the trusted key once over the authenticated
// channel and re-verify — not report tampering until restart.
//
// The rotation lands between a commit and the refresh that first ships
// it, so what is shipped must name the key it was minted under: the map,
// signed when the edge first pulls it, carries the new version and a
// signing time after the commit; the shard root carries the new version
// too, signed when first shipped.
func TestQuerySurvivesKeyRotation(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel() // each waits out a second of wall clock
			ctx := context.Background()
			d := freshDeploy(t, 200, central.Options{PageSize: 1024, Scheme: scheme})

			preds := []query.Predicate{
				{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
				{Column: "id", Op: query.OpLE, Value: schema.Int64(19)},
			}
			if _, err := d.client.Query(ctx, "items", preds, nil); err != nil {
				t.Fatalf("pre-rotation query: %v", err)
			}

			// Commit an update under version 0, let the clock pass the
			// commit's second, rotate to version 2 with a fresh validity
			// window, then propagate the update to the edge.
			if err := d.central.Insert("items", rotationRow(t, 90_000)); err != nil {
				t.Fatal(err)
			}
			committed := time.Now().Unix()
			for time.Now().Unix() == committed {
				time.Sleep(10 * time.Millisecond)
			}
			d.central.SetKeyValidity(2, time.Now().Unix()-60, 0)
			if _, err := d.edge.Refresh(ctx, "items"); err != nil {
				t.Fatal(err)
			}
			sm, err := d.edge.SignedShardMap("items")
			if err != nil {
				t.Fatal(err)
			}
			if sm.Map.KeyVersion != 2 || sm.Map.SignedAt <= committed {
				t.Errorf("shipped map names key version %d, signed at %d; want 2, after the commit at %d", sm.Map.KeyVersion, sm.Map.SignedAt, committed)
			}

			// The next query's answer carries the new map, which this
			// client has never seen the key of. It must recover
			// transparently.
			shipped := make(chan vo.VO, 1)
			d.attack(func(rs *vo.ResultSet, w *vo.VO) error {
				select {
				case shipped <- vo.VO{KeyVersion: w.KeyVersion, TopDigest: w.TopDigest.Clone(), RootSig: w.RootSig.Clone()}:
				default:
				}
				return nil
			})
			res, err := d.client.Query(ctx, "items", preds, nil)
			if err != nil {
				t.Fatalf("post-rotation query reported: %v (the pre-fix client returned ErrTampered forever)", err)
			}
			if len(res.Result.Tuples) != 10 {
				t.Fatalf("post-rotation query returned %d tuples, want 10", len(res.Result.Tuples))
			}
			w := <-shipped
			if err := d.central.PublicKey().Verify(w.RootSig, w.TopDigest); err != nil {
				t.Errorf("shipped root signature: %v", err)
			}
			if w.KeyVersion != 2 {
				t.Errorf("shipped root names key version %d, want 2, the version it was signed under", w.KeyVersion)
			}

			// The refetch must not become a hole: a VO stamped with a key
			// version the central server never served still fails as
			// tampering.
			d.attack(func(rs *vo.ResultSet, w *vo.VO) error {
				w.KeyVersion = 99
				return nil
			})
			if _, err := d.client.Query(ctx, "items", preds, nil); !errors.Is(err, ErrTampered) {
				t.Fatalf("forged key version after rotation: %v, want ErrTampered", err)
			}
			d.heal()
		})
	}
}

// TestInsertBatchEndToEnd drives the batched write path over real TCP:
// one frame in, a group commit at the central server, typed per-op
// results out, and the rows visible through a verified query after a
// delta refresh.
func TestInsertBatchEndToEnd(t *testing.T) {
	ctx := context.Background()
	d := freshDeploy(t, 150, central.Options{PageSize: 1024})

	base, err := d.central.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	rows := []schema.Tuple{
		rotationRow(t, 70_000),
		rotationRow(t, 25), // duplicate of a base row
		rotationRow(t, 70_001),
		rotationRow(t, 70_002),
	}
	opErrs, err := d.client.InsertBatch(ctx, "items", rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 3} {
		if opErrs[i] != nil {
			t.Fatalf("op %d failed: %v", i, opErrs[i])
		}
	}
	if !errors.Is(opErrs[1], wire.ErrDuplicateKey) {
		t.Fatalf("duplicate op error = %v, want wire.ErrDuplicateKey", opErrs[1])
	}

	// One version bump for the whole batch.
	if v, _ := d.central.Version("items"); v != base+1 {
		t.Fatalf("batch bumped version %d -> %d, want one bump", base, v)
	}

	// The batch reaches the edge as one delta and verifies end to end.
	st, err := d.edge.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "delta" {
		t.Fatalf("refresh mode = %q, want delta", st.Mode)
	}
	res, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(70_000)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Tuples) != 3 {
		t.Fatalf("batched rows visible: %d, want 3", len(res.Result.Tuples))
	}

	// Empty batch is a no-op.
	if opErrs, err := d.client.InsertBatch(ctx, "items", nil); err != nil || opErrs != nil {
		t.Fatalf("empty batch: %v / %v", opErrs, err)
	}
	// Unknown table surfaces the typed table-level error.
	if _, err := d.client.InsertBatch(ctx, "missing", rows); !errors.Is(err, wire.ErrUnknownTable) {
		t.Fatalf("batch into unknown table: %v, want ErrUnknownTable", err)
	}
}

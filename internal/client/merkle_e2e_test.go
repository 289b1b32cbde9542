package client

import (
	"context"
	"errors"
	"net"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/tamper"
	"edgeauth/internal/vo"
)

// deployScheme is deploy with an explicit signature scheme (and optional
// sharding) at the central server.
func deployScheme(t *testing.T, rows int, scheme sig.Scheme, shards int) *deployment {
	t.Helper()
	srv, err := central.NewServer(central.Options{PageSize: 1024, KeyBits: 512, Scheme: scheme, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return startDeployment(t, srv, rows, func(l net.Listener) net.Listener { return l })
}

func merkleSchemes() []sig.Scheme {
	return []sig.Scheme{sig.SchemeRSAMerkle, sig.SchemeEd25519}
}

// TestMerkleSchemesEndToEnd drives the full Figure-2 loop — build, pull,
// query, verify, update, refresh, re-verify — under each Merkle
// commitment scheme, on both the single-tree and sharded paths.
func TestMerkleSchemesEndToEnd(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range merkleSchemes() {
		for _, shards := range []int{1, 3} {
			t.Run(scheme.String()+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				d := deployScheme(t, 300, scheme, shards)
				preds := []query.Predicate{
					{Column: "id", Op: query.OpGE, Value: schema.Int64(50)},
					{Column: "id", Op: query.OpLE, Value: schema.Int64(99)},
				}
				res, err := d.client.Query(ctx, "items", preds, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Result.Tuples) != 50 {
					t.Fatalf("got %d tuples, want 50", len(res.Result.Tuples))
				}
				// Update, refresh, and verify the new state round-trips.
				newTuple := mkWorkloadTuple(t, d, 5000)
				if err := d.client.Insert(ctx, "items", newTuple); err != nil {
					t.Fatal(err)
				}
				if _, err := d.edge.Refresh(ctx, "items"); err != nil {
					t.Fatal(err)
				}
				res, err = d.client.Query(ctx, "items", []query.Predicate{
					{Column: "id", Op: query.OpEQ, Value: schema.Int64(5000)},
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Result.Tuples) != 1 {
					t.Fatalf("inserted tuple not visible: got %d tuples", len(res.Result.Tuples))
				}
				if _, err := d.client.DeleteRange(ctx, "items", i64(5000), i64(5000)); err != nil {
					t.Fatal(err)
				}
				if _, err := d.edge.Refresh(ctx, "items"); err != nil {
					t.Fatal(err)
				}
				res, err = d.client.Query(ctx, "items", []query.Predicate{
					{Column: "id", Op: query.OpEQ, Value: schema.Int64(5000)},
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Result.Tuples) != 0 {
					t.Fatal("deleted tuple still visible")
				}
			})
		}
	}
}

// TestMerkleVerifyCacheHits shows repeat queries skipping signature work:
// the second identical query should be served entirely from the
// verified-digest cache.
func TestMerkleVerifyCacheHits(t *testing.T) {
	ctx := context.Background()
	d := deployScheme(t, 200, sig.SchemeEd25519, 1)
	preds := []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(60)},
	}
	if _, err := d.client.Query(ctx, "items", preds, nil); err != nil {
		t.Fatal(err)
	}
	first := d.client.VerifyCacheStats()
	if _, err := d.client.Query(ctx, "items", preds, nil); err != nil {
		t.Fatal(err)
	}
	second := d.client.VerifyCacheStats()
	if second.Hits <= first.Hits {
		t.Fatalf("repeat query earned no cache hits: %+v -> %+v", first, second)
	}
	if second.Misses != first.Misses {
		t.Fatalf("repeat query re-verified signatures: %+v -> %+v", first, second)
	}
}

// TestMerkleTamperFailsClosed drives the whole answer-tampering
// catalogue — the interior-forgery and scheme-confusion attacks among it —
// against deployments of both schemes whose roots and maps were signed when
// first shipped: every attack must apply to a projected Merkle answer and
// surface as ErrTampered.
func TestMerkleTamperFailsClosed(t *testing.T) {
	ctx := context.Background()
	preds := []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(60)},
	}
	project := []string{"id", "cat"}
	for _, scheme := range merkleSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			d := deployScheme(t, 200, scheme, 1)
			// One commit shipped by delta, so the answers anchor at a root
			// and a map both signed by the refresh that pulled them.
			if err := d.central.Insert("items", rotationRow(t, 90_000)); err != nil {
				t.Fatal(err)
			}
			if _, err := d.edge.Refresh(ctx, "items"); err != nil {
				t.Fatal(err)
			}
			for _, a := range tamper.All() {
				t.Run(a.Name, func(t *testing.T) {
					applied := false
					d.attack(func(rs *vo.ResultSet, w *vo.VO) error {
						if err := a.Apply(rs, w); err != nil {
							if errors.Is(err, tamper.ErrNotApplicable) {
								return nil
							}
							return err
						}
						applied = true
						return nil
					})
					defer d.heal()
					_, err := d.client.Query(ctx, "items", preds, project)
					if !applied {
						t.Fatalf("attack %q did not apply to a Merkle VO", a.Name)
					}
					if !errors.Is(err, ErrTampered) {
						t.Fatalf("attack %q: err = %v, want ErrTampered", a.Name, err)
					}
				})
			}
			// Clean queries pass once the edge behaves again.
			if _, err := d.client.Query(ctx, "items", preds, nil); err != nil {
				t.Fatalf("clean query after tamper: %v", err)
			}
		})
	}
}

// TestCrossSchemeConfusionAgainstLegacy: an answer re-presented in the
// legacy shape of the retired per-node rsa scheme — the root signature in
// the top-digest slot, none detached — is rejected by an rsa-merkle
// deployment, whose key could recover a digest from that signature.
func TestCrossSchemeConfusionAgainstLegacy(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 100)
	a := tamper.CrossSchemeConfusion()
	d.attack(func(rs *vo.ResultSet, w *vo.VO) error { return a.Apply(rs, w) })
	defer d.heal()
	_, err := d.client.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
	}, nil)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("cross-scheme confusion in the legacy shape: err = %v, want ErrTampered", err)
	}
}

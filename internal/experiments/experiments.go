// Package experiments measures the live implementation and renders the
// results in the same figure format as the analytic cost model, so the
// benchmark harness can print paper-model and measured series side by
// side for every table and figure of the evaluation (paper §4).
//
// Scale note: the paper's plots are analytic, evaluated at N_R = 1M
// tuples. The measured series run the real system — VB-tree, Naive store,
// wire encodings, signature recovery — at a laptop-scale table size
// (Config.Rows, default 10k), which preserves every comparative shape the
// paper reports: who wins, how the gap moves with selectivity, Q_C,
// attribute size and X.
package experiments

import (
	"context"
	"fmt"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/naive"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/workload"
)

// Config sizes the measured runs.
type Config struct {
	// Rows is the main measured table size.
	Rows int
	// SmallRows sizes the per-point rebuilds (Figure 11's attribute-size
	// sweep and the update experiments).
	SmallRows int
	// KeyBits sizes the signing key.
	KeyBits int
	// PageSize is the node size (Table 1: 4 KB).
	PageSize int
	// Seed drives the workload generator.
	Seed int64
}

// DefaultConfig returns laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Rows:      10_000,
		SmallRows: 2_000,
		KeyBits:   512,
		PageSize:  storage.DefaultPageSize,
		Seed:      42,
	}
}

// Env is a built deployment reused across measurements: the same table
// indexed by a VB-tree and mirrored in a Naive store.
type Env struct {
	Cfg    Config
	Key    *sig.PrivateKey
	Sch    *schema.Schema
	Tree   *vbtree.Tree
	Naive  *naive.Store
	AccLen int

	// Counters instrument the verification side.
	counters *digest.Counters
	verAcc   *digest.Accumulator
	verPub   *sig.PublicKey
}

// NewEnv builds the measured environment under an rsa-merkle key, so that
// the VB-tree's one root signature and the Naive baseline's per-attribute
// signatures are both RSA recoveries at the client. The Naive store's
// signing of every attribute and tuple digest takes a few seconds at
// default scale.
func NewEnv(cfg Config) (*Env, error) {
	key, err := sig.Generate(sig.SchemeRSAMerkle, cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	return NewEnvWithKey(cfg, key)
}

// NewEnvWithKey builds the environment around an existing key.
func NewEnvWithKey(cfg Config, key *sig.PrivateKey) (*Env, error) {
	spec := workload.DefaultSpec(cfg.Rows)
	spec.Seed = cfg.Seed
	sch, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	tuples, err := spec.Tuples()
	if err != nil {
		return nil, err
	}
	acc := digest.MustNew(digest.DefaultParams())
	tree, err := buildTree(cfg, sch, acc, key, tuples)
	if err != nil {
		return nil, err
	}
	nstore, err := naive.BuildStore(sch, acc, key, tuples)
	if err != nil {
		return nil, err
	}
	// Instrumented accumulator + key for the client side.
	counters := &digest.Counters{}
	p := digest.DefaultParams()
	p.Counters = counters
	verAcc := digest.MustNew(p)
	verPub := key.Public()
	verPub.Counters = counters
	return &Env{
		Cfg:      cfg,
		Key:      key,
		Sch:      sch,
		Tree:     tree,
		Naive:    nstore,
		AccLen:   acc.Len(),
		counters: counters,
		verAcc:   verAcc,
		verPub:   verPub,
	}, nil
}

func buildTree(cfg Config, sch *schema.Schema, acc *digest.Accumulator, key *sig.PrivateKey, tuples []schema.Tuple) (*vbtree.Tree, error) {
	mem, err := storage.NewMemPager(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	pool, err := storage.NewBufferPool(mem, 1<<20)
	if err != nil {
		return nil, err
	}
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		return nil, err
	}
	return vbtree.Build(vbtree.Config{
		Pool:             pool,
		Heap:             heap,
		Schema:           sch,
		Acc:              acc,
		Signer:           key,
		Pub:              key.Public(),
		BuildParallelism: 8,
	}, tuples, 1.0)
}

// rangeFor converts a selectivity into datum bounds over the env table.
func (e *Env) rangeFor(sel float64) (lo, hi schema.Datum, qr int) {
	l, h, q := workload.RangeForSelectivity(e.Cfg.Rows, sel, e.Cfg.Seed+int64(sel*1000))
	return schema.Int64(l), schema.Int64(h), q
}

// Query answers q from a view of the env's tree, anchored at its root
// signature: the answer an edge would ship.
func (e *Env) Query(ctx context.Context, q vbtree.Query) (rs *vo.ResultSet, w *vo.VO, err error) {
	err = e.Tree.Read(true, func(v *vbtree.View) error {
		rs, w, err = v.RunQuery(ctx, q)
		return err
	})
	return rs, w, err
}

// CommPoint measures the response bytes of both schemes for one
// selectivity and projection width.
type CommPoint struct {
	Selectivity  float64
	QR           int
	NaiveBytes   int
	VBBytes      int
	NaiveDigests int
	VBDigests    int
}

// MeasureComm runs the communication experiment for one (selectivity, Qc).
func (e *Env) MeasureComm(ctx context.Context, sel float64, qc int) (CommPoint, error) {
	lo, hi, qr := e.rangeFor(sel)
	project := workload.ProjectFirstN(e.Sch, qc)
	rs, w, err := e.Query(ctx, vbtree.Query{Lo: &lo, Hi: &hi, Project: project})
	if err != nil {
		return CommPoint{}, err
	}
	nrs, nw, err := e.Naive.RunQuery(naive.Query{Lo: &lo, Hi: &hi, Project: project}, 0)
	if err != nil {
		return CommPoint{}, err
	}
	if len(rs.Tuples) != qr || len(nrs.Tuples) != qr {
		return CommPoint{}, fmt.Errorf("experiments: result sizes %d/%d, want %d",
			len(rs.Tuples), len(nrs.Tuples), qr)
	}
	return CommPoint{
		Selectivity:  sel,
		QR:           qr,
		NaiveBytes:   nrs.WireSize() + nw.WireSize(),
		VBBytes:      rs.WireSize() + w.WireSize(),
		NaiveDigests: nw.NumDigests(),
		VBDigests:    w.NumDigests(),
	}, nil
}

// OpsPoint captures the client-side operation counts of one verification.
type OpsPoint struct {
	Selectivity float64
	QR          int
	// VB scheme ops.
	VBHash, VBCombine, VBRecover int64
	// Naive scheme ops.
	NaiveHash, NaiveCombine, NaiveRecover int64
	// Wall-clock verification times.
	VBTime, NaiveTime time.Duration
}

// Cost weights ops into Cost_h units: hash + costK·combine + x·recover.
func (o OpsPoint) Cost(scheme string, costK, x float64) float64 {
	switch scheme {
	case "vb":
		return float64(o.VBHash) + costK*float64(o.VBCombine) + x*float64(o.VBRecover)
	case "naive":
		return float64(o.NaiveHash) + costK*float64(o.NaiveCombine) + x*float64(o.NaiveRecover)
	default:
		panic("experiments: unknown scheme " + scheme)
	}
}

// MeasureOps runs both schemes' full query+verify paths and counts the
// client's hash/combine/recover operations.
func (e *Env) MeasureOps(ctx context.Context, sel float64, qc int) (OpsPoint, error) {
	lo, hi, qr := e.rangeFor(sel)
	project := workload.ProjectFirstN(e.Sch, qc)
	out := OpsPoint{Selectivity: sel, QR: qr}

	// VB scheme.
	rs, w, err := e.Query(ctx, vbtree.Query{Lo: &lo, Hi: &hi, Project: project})
	if err != nil {
		return out, err
	}
	ver := &verify.Verifier{Key: e.verPub, Acc: e.verAcc, Schema: e.Sch}
	before := e.counters.Snapshot()
	start := time.Now()
	if err := ver.Verify(rs, w); err != nil {
		return out, fmt.Errorf("experiments: VB verification failed: %w", err)
	}
	out.VBTime = time.Since(start)
	d := e.counters.Snapshot().Sub(before)
	out.VBHash, out.VBCombine, out.VBRecover = d.HashOps, d.CombineOps, d.RecoverOps

	// Naive scheme.
	nrs, nw, err := e.Naive.RunQuery(naive.Query{Lo: &lo, Hi: &hi, Project: project}, 0)
	if err != nil {
		return out, err
	}
	before = e.counters.Snapshot()
	start = time.Now()
	if err := naive.Verify(e.Sch, e.verAcc, e.verPub, nrs, nw); err != nil {
		return out, fmt.Errorf("experiments: naive verification failed: %w", err)
	}
	out.NaiveTime = time.Since(start)
	d = e.counters.Snapshot().Sub(before)
	out.NaiveHash, out.NaiveCombine, out.NaiveRecover = d.HashOps, d.CombineOps, d.RecoverOps
	return out, nil
}

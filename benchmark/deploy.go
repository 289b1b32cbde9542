package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/edge"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

const (
	table    = "items"
	keyBits  = 1024
	pageSize = 4096
	// flushPolicy is stated in the output: the repo's default, which this
	// benchmark does not change.
	flushPolicy = "wal: one fsync per shard per committed batch or delete (central default)"
)

// deployment is the one system every workload drives: a central server
// and one edge on loopback TCP listeners inside this process (the same
// Serve(l) path centrald and edged run), and one client holding one
// multiplexed connection to each.
type deployment struct {
	gen     *generator
	sch     *schema.Schema
	base    []schema.Tuple
	oracle  *oracle
	central *central.Server
	// edge is refreshed only by the benchmark calling RefreshAll (no
	// ticker), so refresh timing is the same on both sides of a comparison.
	edge   *edge.Server
	client *client.Client
	walDir string
	// edgeAddr is where the edge listens; the traced pass dials it too.
	edgeAddr string
}

// deploy generates the key, builds and signs the table, bootstraps the
// edge with PullAll and dials the client. tmp is where the WAL directory
// goes, so fsync hits the same file system on every run.
func deploy(ctx context.Context, gen *generator, tmp string) (d *deployment, err error) {
	d = &deployment{gen: gen, oracle: newOracle(gen.rows)}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if d.sch, d.base, err = gen.tuples(); err != nil {
		return d, err
	}
	if d.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
		return d, err
	}
	d.central, err = central.NewServer(central.Options{
		Shards:   numShards,
		Scheme:   sig.SchemeRSAMerkle,
		KeyBits:  keyBits,
		PageSize: pageSize,
		WALDir:   d.walDir,
	})
	if err != nil {
		return d, err
	}
	if err = d.central.AddTable(d.sch, d.base); err != nil {
		return d, err
	}
	centralLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	go d.central.Serve(centralLn) // returns when central.Close closes the listener

	d.edge = edge.New(centralLn.Addr().String())
	if err = d.edge.PullAll(ctx); err != nil {
		return d, err
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	go d.edge.Serve(edgeLn) // returns when edge.Close closes the listener
	d.edgeAddr = edgeLn.Addr().String()

	d.client, err = client.Dial(ctx, client.Config{
		EdgeAddr:    d.edgeAddr,
		CentralAddr: centralLn.Addr().String(),
	})
	if err != nil {
		return d, err
	}
	return d, d.client.FetchTrustedKey(ctx)
}

// close stops the client and both servers (their Close waits for the
// connection handlers) and removes the WAL directory.
func (d *deployment) close() {
	if d.client != nil {
		d.client.Close()
	}
	if d.edge != nil {
		_ = d.edge.Close() // a close error at teardown changes no result
	}
	if d.central != nil {
		_ = d.central.Close()
	}
	if d.walDir != "" {
		_ = os.RemoveAll(d.walDir)
	}
}

// Failure classes, printed beside the failed share.
const (
	failTampered  = "tampered"
	failStale     = "stale_replica"
	failDrift     = "drift_retries_exhausted"
	failTransport = "transport"
	failOracle    = "oracle_mismatch"
	failDeadline  = "deadline"
)

var failClasses = []string{failTampered, failStale, failDrift, failTransport, failOracle, failDeadline}

// classify names the failure class of an operation's error.
func classify(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return failDeadline
	case strings.Contains(err.Error(), "drifted from the routing map"):
		// client.errShardDrift is unexported; it surfaces under ErrTampered
		// once the retries are used up.
		return failDrift
	case errors.Is(err, client.ErrTampered):
		return failTampered
	case errors.Is(err, wire.ErrStaleReplica):
		return failStale
	case errors.Is(err, errOracle):
		return failOracle
	default:
		return failTransport
	}
}

var errOracle = errors.New("answer disagrees with the oracle")

// query runs one verified read through the edge and checks the answer's
// row count and first and last key against the oracle.
func (d *deployment) query(ctx context.Context, op readOp) (*client.QueryResult, error) {
	res, err := d.client.Query(ctx, table, op.preds(), op.project)
	if err != nil {
		return nil, err
	}
	n, first, last := d.oracle.expect(op.lo, op.hi)
	keys := res.Result.Keys
	if len(keys) != n || len(res.Result.Tuples) != n {
		return nil, fmt.Errorf("%w: [%d,%d] returned %d rows, want %d", errOracle, op.lo, op.hi, len(keys), n)
	}
	if n > 0 && (keys[0].I != first || keys[n-1].I != last) {
		return nil, fmt.Errorf("%w: [%d,%d] spans %d..%d, want %d..%d", errOracle, op.lo, op.hi, keys[0].I, keys[n-1].I, first, last)
	}
	return res, nil
}

// insert commits a round's runs as one InsertBatch and tells the oracle.
func (d *deployment) insert(ctx context.Context, runs []run) error {
	tuples := tuplesFor(d.base, runs)
	opErrs, err := d.client.InsertBatch(ctx, table, tuples)
	if err != nil {
		return err
	}
	for i, e := range opErrs {
		if e != nil {
			return fmt.Errorf("tuple %d of the batch: %w", i, e)
		}
	}
	d.oracle.inserted(runs)
	return nil
}

// deleteRuns removes an earlier round's runs, one DeleteRange each.
func (d *deployment) deleteRuns(ctx context.Context, runs []run) error {
	for _, r := range runs {
		lo, hi := schema.Int64(r.lo), schema.Int64(r.hi())
		n, err := d.client.DeleteRange(ctx, table, &lo, &hi)
		if err != nil {
			return err
		}
		if n != r.n {
			return fmt.Errorf("%w: delete [%d,%d] removed %d rows, want %d", errOracle, r.lo, r.hi(), n, r.n)
		}
	}
	d.oracle.deleted(runs)
	return nil
}

// tamperCanary turns the edge hostile for one query and requires the
// client to reject the answer. An answer that verifies means
// verification was optimised away: the run must fail.
func (d *deployment) tamperCanary(ctx context.Context) error {
	d.edge.SetTamper(func(rs *vo.ResultSet, _ *vo.VO) error {
		if len(rs.Tuples) > 0 && len(rs.Tuples[0].Values) > 1 {
			rs.Tuples[0].Values[1] = schema.Str("tampered")
		}
		return nil
	})
	defer d.edge.SetTamper(nil)
	k := rowKey(d.gen.perm[0])
	_, err := d.client.Query(ctx, table, readOp{lo: k, hi: k}.preds(), nil)
	if !errors.Is(err, client.ErrTampered) {
		return fmt.Errorf("tamper canary: a flipped value was not rejected (err = %v)", err)
	}
	return nil
}

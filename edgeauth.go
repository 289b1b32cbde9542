// Package edgeauth is a Go implementation of "Authenticating Query
// Results in Edge Computing" (Pang & Tan, ICDE 2004): verifiable B-trees
// (VB-trees) whose digests, anchored by one signature over the root, let
// untrusted edge servers prove with a verification object (VO) that query
// results are authentic — values untampered, no spurious tuples.
//
// This package is the public facade over the implementation:
//
//   - NewCentral creates the trusted central DBMS (owns the signing key,
//     builds VB-trees, applies inserts/deletes, serves snapshots).
//   - NewEdge creates an untrusted edge server that replicates tables from
//     the central server and answers queries with VOs.
//   - Dial creates a verifying client that rejects tampered results.
//
// The client API is context-first and concurrent: every network-facing
// method takes a context.Context (cancellation and deadlines are observed
// mid-request), and one Client may be shared by many goroutines — their
// requests pipeline over a single multiplexed connection per server with
// responses demultiplexed by request ID. Remote failures carry typed codes:
// errors.Is distinguishes ErrTampered (verification failure at the
// client), ErrUnknownTable and ErrStaleReplica.
//
// See the examples directory for complete deployments, and cmd/bench for
// the reproduction of every figure in the paper's evaluation.
package edgeauth

import (
	"context"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/edge"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// Core data-model types.
type (
	// Schema describes a table: identity, columns, primary key.
	Schema = schema.Schema
	// Column is one attribute of a table.
	Column = schema.Column
	// Datum is a typed value.
	Datum = schema.Datum
	// Tuple is one row.
	Tuple = schema.Tuple
	// Type enumerates column types.
	Type = schema.Type
)

// Column type constants.
const (
	TypeInt64   = schema.TypeInt64
	TypeFloat64 = schema.TypeFloat64
	TypeString  = schema.TypeString
	TypeBytes   = schema.TypeBytes
)

// Datum constructors.
var (
	Int64   = schema.Int64
	Float64 = schema.Float64
	Str     = schema.Str
	Bytes   = schema.Bytes
)

// Query types.
type (
	// Predicate is a comparison: column OP literal.
	Predicate = query.Predicate
	// Op is a comparison operator.
	Op = query.Op
	// TreeQuery is the compiled form executed by a VB-tree.
	TreeQuery = vbtree.Query
)

// Comparison operators.
const (
	OpEQ = query.OpEQ
	OpNE = query.OpNE
	OpLT = query.OpLT
	OpLE = query.OpLE
	OpGT = query.OpGT
	OpGE = query.OpGE
)

// Protocol types.
type (
	// ResultSet is a verifiable query answer.
	ResultSet = vo.ResultSet
	// VO is the verification object accompanying a result.
	VO = vo.VO
	// Verifier checks results against the central server's public key.
	Verifier = verify.Verifier
	// PublicKey verifies and recovers signed digests.
	PublicKey = sig.PublicKey
	// PrivateKey signs digests (held only by the central server).
	PrivateKey = sig.PrivateKey
)

// Server roles.
type (
	// Central is the trusted central DBMS.
	Central = central.Server
	// CentralOptions configures the central server.
	CentralOptions = central.Options
	// Edge is an untrusted edge server.
	Edge = edge.Server
	// EdgeOptions configures an edge server's serving side.
	EdgeOptions = edge.Options
	// RefreshStat reports how an edge refresh brought one replica up to
	// date (signed delta, full snapshot, or noop) and what it cost.
	RefreshStat = edge.RefreshStat
	// Client is a verifying database client. It is safe for concurrent
	// use; every method takes a context.
	Client = client.Client
	// Config configures Dial.
	Config = client.Config
	// VerifiedResult is a client query answer that passed verification.
	VerifiedResult = client.QueryResult
)

// ErrTampered is returned by Client.Query when a result fails
// verification — the signal that an edge server has been compromised.
var ErrTampered = client.ErrTampered

// Typed remote errors, matched with errors.Is.
var (
	// ErrUnknownTable reports a table that is not registered at the
	// central server or not replicated at the edge.
	ErrUnknownTable = wire.ErrUnknownTable
	// ErrStaleReplica reports a replica whose version history has
	// diverged from the request's assumption. Edge servers return it for
	// queries once a refresh has discovered the central's table epoch no
	// longer matches the replica's.
	ErrStaleReplica = wire.ErrStaleReplica
	// ErrDuplicateKey reports an insert that collided with an existing
	// primary key (per-op inside InsertBatch results, or for Insert).
	ErrDuplicateKey = wire.ErrDuplicateKey
)

// NewCentral creates the trusted central server with a fresh signing key.
func NewCentral(opts CentralOptions) (*Central, error) {
	return central.NewServer(opts)
}

// NewEdge creates an edge server that replicates from the central server
// at centralAddr.
func NewEdge(centralAddr string) *Edge {
	return edge.New(centralAddr)
}

// NewEdgeWithOptions creates an edge server with explicit serving options
// (idle timeout, upstream peer edges, serving peers).
func NewEdgeWithOptions(centralAddr string, opts EdgeOptions) *Edge {
	return edge.NewWithOptions(centralAddr, opts)
}

// Dial creates a client that queries cfg.EdgeAddr and routes updates and
// key fetches to cfg.CentralAddr. The edge connection is established (and
// its handshake completed) before Dial returns.
func Dial(ctx context.Context, cfg Config) (*Client, error) {
	return client.Dial(ctx, cfg)
}

// Scheme is a signing key's signature scheme. Both sign one root digest
// per VB-tree version.
type Scheme = sig.Scheme

// Signature schemes. SchemeEd25519 is what a zero CentralOptions selects.
const (
	SchemeEd25519   = sig.SchemeEd25519
	SchemeRSAMerkle = sig.SchemeRSAMerkle
)

// GenerateKey creates a signing key pair of the given scheme; bits sizes
// an rsa-merkle modulus and is ignored for Ed25519.
func GenerateKey(scheme Scheme, bits int) (*PrivateKey, error) {
	return sig.Generate(scheme, bits)
}

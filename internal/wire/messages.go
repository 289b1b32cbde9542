package wire

import (
	"fmt"

	"edgeauth/internal/codec"
	"edgeauth/internal/digest"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/vo"
)

// QueryRequest is the selection/projection a ShardQueryRequest carries.
type QueryRequest struct {
	Table      string
	Predicates []query.Predicate
	Project    []string // nil = all columns
	ProjectAll bool     // true when Project is nil (distinguishes SELECT *)
}

// Encode serializes the request.
func (q *QueryRequest) Encode() []byte {
	out := codec.AppendStr(nil, q.Table)
	out = codec.AppendU32(out, uint32(len(q.Predicates)))
	for _, p := range q.Predicates {
		out = codec.AppendStr(out, p.Column)
		out = codec.AppendU8(out, uint8(p.Op))
		out = p.Value.Encode(out)
	}
	if q.ProjectAll || q.Project == nil {
		return codec.AppendFlag(out, true)
	}
	out = codec.AppendFlag(out, false)
	out = codec.AppendU32(out, uint32(len(q.Project)))
	for _, c := range q.Project {
		out = codec.AppendStr(out, c)
	}
	return out
}

// The smallest encodings of a query request's entries: a predicate is a
// column name's length word, an operator and a datum; a projected column,
// like a string list's item, is at least its length word.
const (
	minPredicateSize = 4 + 1 + schema.MinDatumSize
	minStringSize    = 4
)

// DecodeQueryRequest parses a QueryRequest. Each count is checked against
// the bytes left over its entries' smallest encoding before its slice is
// made, once.
func DecodeQueryRequest(body []byte) (*QueryRequest, error) {
	r := codec.NewReader("wire", body)
	q := &QueryRequest{Table: r.Str("table")}
	if n := r.Count("predicate count", minPredicateSize); n > 0 {
		q.Predicates = make([]query.Predicate, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			col := r.Str("predicate column")
			op := query.Op(r.U8("predicate op"))
			q.Predicates = append(q.Predicates, query.Predicate{Column: col, Op: op, Value: r.Datum("predicate literal")})
		}
	}
	if q.ProjectAll = r.Flag("projection flag"); !q.ProjectAll && r.Err() == nil {
		pn := r.Count("projection count", minStringSize)
		// Not nil even when empty: an empty projection is not SELECT *.
		q.Project = make([]string, 0, pn)
		for i := 0; i < pn && r.Err() == nil; i++ {
			q.Project = append(q.Project, r.Str("projection column"))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return q, nil
}

// QueryResponse is the verifiable answer a ShardQueryResponse carries.
type QueryResponse struct {
	Result *vo.ResultSet
	VO     *vo.VO
}

// Encode serializes the response (a vo answer).
func (q *QueryResponse) Encode() []byte {
	return vo.AppendAnswer(nil, q.Result, q.VO)
}

// DecodeQueryResponse parses a QueryResponse. The result set and the VO
// are views of body (see vo.DecodeAnswer): valid until body is modified
// or reused.
func DecodeQueryResponse(body []byte) (*QueryResponse, error) {
	rs, w, err := vo.DecodeAnswer(body)
	if err != nil {
		return nil, err
	}
	return &QueryResponse{Result: rs, VO: w}, nil
}

// Snapshot replicates a table and its VB-tree to an edge server: the raw
// pages (tree + heap), the tree metadata, the heap page list and the
// schema. The accumulator is a constant of the code (package digest), so
// nothing here describes it.
type Snapshot struct {
	Schema    *schema.Schema
	Root      storage.PageID
	Height    uint32
	RootSig   []byte
	PageSize  uint32
	HeapPages []storage.PageID
	// Pages holds (id, content) for every live page.
	PageIDs  []storage.PageID
	PageData [][]byte
	// KeyVersion is the signing-key version in force.
	KeyVersion uint32
	// Scheme is the signature scheme (sig.Scheme) the key named by
	// KeyVersion uses; edges carry it into the key registry so clients
	// resolve the right verification algorithm.
	Scheme uint8
	// Version is the table's update version at capture time; edges record
	// it so later refreshes can request a delta from this point.
	Version uint64
	// Epoch identifies the table incarnation (fresh per AddTable), so a
	// rebuilt central cannot serve deltas against a divergent history.
	Epoch uint64
}

// NewSnapshot materializes one shard's replica image from a pinned
// snapshot of its page store and the tree anchor published with it — the
// one place a served Snapshot is assembled, at the central server and at
// a relaying edge alike, so the two cannot disagree on what a replica
// needs. Page contents are copied out: the result holds no reference to
// the pinned pages once this returns.
func NewSnapshot(pinned *storage.Snapshot, st *vbtree.TableState, sch *schema.Schema) (*Snapshot, error) {
	snap := &Snapshot{
		Schema:     sch,
		Root:       st.Root,
		Height:     uint32(st.Height),
		RootSig:    st.RootSig,
		PageSize:   uint32(pinned.PageSize()),
		HeapPages:  st.HeapPages,
		KeyVersion: st.KeyVersion,
		Scheme:     uint8(st.Scheme),
		Version:    st.Version,
		Epoch:      st.Epoch,
	}
	if n := pinned.NumPages() - 1; n > 0 {
		snap.PageIDs = make([]storage.PageID, 0, n)
		snap.PageData = make([][]byte, 0, n)
	}
	for id := 1; id < pinned.NumPages(); id++ {
		buf, err := pinned.View(storage.PageID(id))
		if err != nil {
			return nil, err
		}
		snap.PageIDs = append(snap.PageIDs, storage.PageID(id))
		snap.PageData = append(snap.PageData, append([]byte(nil), buf...))
	}
	return snap, nil
}

// AccParams is what is left of the accumulator parameters that Snapshot
// and SchemaResponse carried before the accumulator became a constant:
// nothing, kept off the wire so the benchmark harness, which builds its
// verifiers through AccParamsFrom(...).ToDigestParams(), still compiles.
// ROADMAP item 9 deletes it.
type AccParams struct{}

// ToDigestParams returns digest.DefaultParams().
func (AccParams) ToDigestParams() digest.Params { return digest.DefaultParams() }

// AccParamsFrom returns the empty AccParams.
func AccParamsFrom(*digest.Accumulator) AccParams { return AccParams{} }

// EncodeSchema serializes a schema.
func EncodeSchema(s *schema.Schema) []byte {
	out := codec.AppendStr(nil, s.DB)
	out = codec.AppendStr(out, s.Table)
	out = codec.AppendU32(out, uint32(len(s.Columns)))
	for _, c := range s.Columns {
		out = codec.AppendStr(out, c.Name)
		out = codec.AppendU8(out, uint8(c.Type))
	}
	out = codec.AppendU32(out, uint32(s.Key))
	return out
}

// DecodeSchema parses a schema and validates it.
func DecodeSchema(body []byte) (*schema.Schema, error) {
	r := codec.NewReader("wire", body)
	s, err := decodeSchemaAt(&r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeSchemaAt(r *codec.Reader) (*schema.Schema, error) {
	s := &schema.Schema{DB: r.Str("db"), Table: r.Str("table")}
	// A column takes at least 5 bytes (name length, type).
	n := r.Count("column count", 5)
	if n > 0 {
		s.Columns = make([]schema.Column, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.Str("column name")
		typ := schema.Type(r.U8("column type"))
		s.Columns = append(s.Columns, schema.Column{Name: name, Type: typ})
	}
	s.Key = int(r.U32("key index"))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	out := codec.AppendBytes(nil, EncodeSchema(s.Schema))
	out = codec.AppendU32(out, uint32(s.Root))
	out = codec.AppendU32(out, s.Height)
	out = codec.AppendBytes(out, s.RootSig)
	out = codec.AppendU32(out, s.PageSize)
	out = codec.AppendU32(out, s.KeyVersion)
	out = codec.AppendU8(out, s.Scheme)
	out = codec.AppendU64(out, s.Version)
	out = codec.AppendU64(out, s.Epoch)
	out = codec.AppendU32(out, uint32(len(s.HeapPages)))
	for _, p := range s.HeapPages {
		out = codec.AppendU32(out, uint32(p))
	}
	out = codec.AppendU32(out, uint32(len(s.PageIDs)))
	for i, id := range s.PageIDs {
		out = codec.AppendU32(out, uint32(id))
		out = codec.AppendBytes(out, s.PageData[i])
	}
	return out
}

// DecodeSnapshot parses a snapshot.
func DecodeSnapshot(body []byte) (*Snapshot, error) {
	r := codec.NewReader("wire", body)
	schBlob := r.Bytes("schema")
	if err := r.Err(); err != nil {
		return nil, err
	}
	sch, err := DecodeSchema(schBlob)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Schema: sch}
	s.Root = storage.PageID(r.U32("root"))
	s.Height = r.U32("height")
	s.RootSig = r.Bytes("root sig")
	s.PageSize = r.U32("page size")
	s.KeyVersion = r.U32("key version")
	s.Scheme = r.U8("signature scheme")
	if r.Err() == nil && !sig.Scheme(s.Scheme).Valid() {
		return nil, fmt.Errorf("wire: snapshot names unknown signature scheme %d", s.Scheme)
	}
	s.Version = r.U64("table version")
	s.Epoch = r.U64("table epoch")
	// A heap page takes 4 bytes, a page at least 8 (id, length).
	if hn := r.Count("heap page count", 4); hn > 0 {
		s.HeapPages = make([]storage.PageID, hn)
		for i := range s.HeapPages {
			s.HeapPages[i] = storage.PageID(r.U32("heap page"))
		}
	}
	if pn := r.Count("page count", 8); pn > 0 {
		s.PageIDs = make([]storage.PageID, pn)
		s.PageData = make([][]byte, pn)
		for i := range s.PageIDs {
			s.PageIDs[i] = storage.PageID(r.U32("page id"))
			s.PageData[i] = r.Bytes("page data")
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// DeleteRequest sends a key-range delete to the central server.
type DeleteRequest struct {
	Table string
	HasLo bool
	Lo    schema.Datum
	HasHi bool
	Hi    schema.Datum
}

// Encode serializes the request.
func (d *DeleteRequest) Encode() []byte {
	out := codec.AppendFlag(codec.AppendStr(nil, d.Table), d.HasLo)
	if d.HasLo {
		out = d.Lo.Encode(out)
	}
	if out = codec.AppendFlag(out, d.HasHi); d.HasHi {
		out = d.Hi.Encode(out)
	}
	return out
}

// DecodeDeleteRequest parses a DeleteRequest.
func DecodeDeleteRequest(body []byte) (*DeleteRequest, error) {
	r := codec.NewReader("wire", body)
	d := &DeleteRequest{Table: r.Str("table")}
	if d.HasLo = r.Flag("lo flag"); d.HasLo {
		d.Lo = r.Datum("lo bound")
	}
	if d.HasHi = r.Flag("hi flag"); d.HasHi {
		d.Hi = r.Datum("hi bound")
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// SchemaResponse tells a client the schema a table's answers are
// verified under. The client asks the central server, over the channel
// it trusts for the key: no digest binds a column's name (AttrDigest
// binds its index), so a schema an edge relayed could relabel columns.
type SchemaResponse struct {
	Schema *schema.Schema
}

// Encode serializes the response.
func (s *SchemaResponse) Encode() []byte {
	return codec.AppendBytes(nil, EncodeSchema(s.Schema))
}

// DecodeSchemaResponse parses a SchemaResponse.
func DecodeSchemaResponse(body []byte) (*SchemaResponse, error) {
	r := codec.NewReader("wire", body)
	blob := r.View("schema")
	if err := r.Done(); err != nil {
		return nil, err
	}
	sch, err := DecodeSchema(blob)
	if err != nil {
		return nil, err
	}
	return &SchemaResponse{Schema: sch}, nil
}

// EncodeStringList / DecodeStringList serve ListTablesResp.
func EncodeStringList(ss []string) []byte {
	out := codec.AppendU32(nil, uint32(len(ss)))
	for _, s := range ss {
		out = codec.AppendStr(out, s)
	}
	return out
}

// DecodeStringList parses a string list. The count is checked against
// the bytes left over an item's smallest encoding before the slice is
// made.
func DecodeStringList(body []byte) ([]string, error) {
	r := codec.NewReader("wire", body)
	n := r.Count("list length", minStringSize)
	out := make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.Str("item"))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeU64 / DecodeU64 serve DeleteResp (the removed-tuple count).
func EncodeU64(v uint64) []byte { return codec.AppendU64(nil, v) }

// DecodeU64 parses an 8-byte integer body.
func DecodeU64(body []byte) (uint64, error) {
	r := codec.NewReader("wire", body)
	v := r.U64("value")
	if err := r.Done(); err != nil {
		return 0, err
	}
	return v, nil
}

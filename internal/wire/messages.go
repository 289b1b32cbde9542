package wire

import (
	"errors"
	"fmt"

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
	out := appendStr(nil, q.Table)
	out = appendU32(out, uint32(len(q.Predicates)))
	for _, p := range q.Predicates {
		out = appendStr(out, p.Column)
		out = appendU8(out, uint8(p.Op))
		out = p.Value.Encode(out)
	}
	if q.ProjectAll || q.Project == nil {
		out = appendU8(out, 1)
		return out
	}
	out = appendU8(out, 0)
	out = appendU32(out, uint32(len(q.Project)))
	for _, c := range q.Project {
		out = appendStr(out, c)
	}
	return out
}

// DecodeQueryRequest parses a QueryRequest.
func DecodeQueryRequest(body []byte) (*QueryRequest, error) {
	r := &reader{data: body}
	q := &QueryRequest{Table: r.str("table")}
	n := int(r.u32("predicate count"))
	if r.err == nil && n > len(body) {
		return nil, errors.New("wire: implausible predicate count")
	}
	for i := 0; i < n && r.err == nil; i++ {
		col := r.str("predicate column")
		op := query.Op(r.u8("predicate op"))
		if r.err != nil {
			break
		}
		d, used, err := schema.DecodeDatum(r.data[r.off:])
		if err != nil {
			return nil, fmt.Errorf("wire: predicate %d literal: %w", i, err)
		}
		r.off += used
		q.Predicates = append(q.Predicates, query.Predicate{Column: col, Op: op, Value: d})
	}
	all := r.u8("projection flag")
	if all == 1 {
		q.ProjectAll = true
	} else {
		pn := int(r.u32("projection count"))
		if r.err == nil && pn > len(body) {
			return nil, errors.New("wire: implausible projection count")
		}
		for i := 0; i < pn && r.err == nil; i++ {
			q.Project = append(q.Project, r.str("projection column"))
		}
	}
	if err := r.done(); err != nil {
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
	out := appendStr(nil, s.DB)
	out = appendStr(out, s.Table)
	out = appendU32(out, uint32(len(s.Columns)))
	for _, c := range s.Columns {
		out = appendStr(out, c.Name)
		out = appendU8(out, uint8(c.Type))
	}
	out = appendU32(out, uint32(s.Key))
	return out
}

// DecodeSchema parses a schema and validates it.
func DecodeSchema(body []byte) (*schema.Schema, error) {
	r := &reader{data: body}
	s, err := decodeSchemaAt(r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeSchemaAt(r *reader) (*schema.Schema, error) {
	s := &schema.Schema{DB: r.str("db"), Table: r.str("table")}
	n := int(r.u32("column count"))
	if r.err == nil && n > len(r.data) {
		return nil, errors.New("wire: implausible column count")
	}
	for i := 0; i < n && r.err == nil; i++ {
		name := r.str("column name")
		typ := schema.Type(r.u8("column type"))
		s.Columns = append(s.Columns, schema.Column{Name: name, Type: typ})
	}
	s.Key = int(r.u32("key index"))
	if r.err != nil {
		return nil, r.err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	out := appendBytes(nil, EncodeSchema(s.Schema))
	out = appendU32(out, uint32(s.Root))
	out = appendU32(out, s.Height)
	out = appendBytes(out, s.RootSig)
	out = appendU32(out, s.PageSize)
	out = appendU32(out, s.KeyVersion)
	out = appendU8(out, s.Scheme)
	out = appendU64(out, s.Version)
	out = appendU64(out, s.Epoch)
	out = appendU32(out, uint32(len(s.HeapPages)))
	for _, p := range s.HeapPages {
		out = appendU32(out, uint32(p))
	}
	out = appendU32(out, uint32(len(s.PageIDs)))
	for i, id := range s.PageIDs {
		out = appendU32(out, uint32(id))
		out = appendBytes(out, s.PageData[i])
	}
	return out
}

// DecodeSnapshot parses a snapshot.
func DecodeSnapshot(body []byte) (*Snapshot, error) {
	r := &reader{data: body}
	schBlob := r.bytes("schema")
	if r.err != nil {
		return nil, r.err
	}
	sch, err := DecodeSchema(schBlob)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Schema: sch}
	s.Root = storage.PageID(r.u32("root"))
	s.Height = r.u32("height")
	s.RootSig = r.bytes("root sig")
	s.PageSize = r.u32("page size")
	s.KeyVersion = r.u32("key version")
	s.Scheme = r.u8("signature scheme")
	if r.err == nil && !sig.Scheme(s.Scheme).Valid() {
		return nil, fmt.Errorf("wire: snapshot names unknown signature scheme %d", s.Scheme)
	}
	s.Version = r.u64("table version")
	s.Epoch = r.u64("table epoch")
	hn := int(r.u32("heap page count"))
	if r.err == nil && hn > len(body) {
		return nil, errors.New("wire: implausible heap page count")
	}
	for i := 0; i < hn && r.err == nil; i++ {
		s.HeapPages = append(s.HeapPages, storage.PageID(r.u32("heap page")))
	}
	pn := int(r.u32("page count"))
	if r.err == nil && pn > len(body) {
		return nil, errors.New("wire: implausible page count")
	}
	for i := 0; i < pn && r.err == nil; i++ {
		id := storage.PageID(r.u32("page id"))
		data := r.bytes("page data")
		s.PageIDs = append(s.PageIDs, id)
		s.PageData = append(s.PageData, data)
	}
	if err := r.done(); err != nil {
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
	out := appendStr(nil, d.Table)
	if d.HasLo {
		out = appendU8(out, 1)
		out = d.Lo.Encode(out)
	} else {
		out = appendU8(out, 0)
	}
	if d.HasHi {
		out = appendU8(out, 1)
		out = d.Hi.Encode(out)
	} else {
		out = appendU8(out, 0)
	}
	return out
}

// DecodeDeleteRequest parses a DeleteRequest.
func DecodeDeleteRequest(body []byte) (*DeleteRequest, error) {
	r := &reader{data: body}
	d := &DeleteRequest{Table: r.str("table")}
	if r.u8("lo flag") == 1 && r.err == nil {
		v, used, err := schema.DecodeDatum(body[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += used
		d.HasLo, d.Lo = true, v
	}
	if r.u8("hi flag") == 1 && r.err == nil {
		v, used, err := schema.DecodeDatum(body[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += used
		d.HasHi, d.Hi = true, v
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

// SchemaResponse tells a client how to verify results for a table: the
// schema and the signing-key version in force.
type SchemaResponse struct {
	Schema     *schema.Schema
	KeyVersion uint32
	// Scheme is the signature scheme (sig.Scheme) of the key in force.
	Scheme uint8
}

// Encode serializes the response.
func (s *SchemaResponse) Encode() []byte {
	out := appendBytes(nil, EncodeSchema(s.Schema))
	out = appendU32(out, s.KeyVersion)
	out = appendU8(out, s.Scheme)
	return out
}

// DecodeSchemaResponse parses a SchemaResponse.
func DecodeSchemaResponse(body []byte) (*SchemaResponse, error) {
	r := &reader{data: body}
	blob := r.bytes("schema")
	if r.err != nil {
		return nil, r.err
	}
	sch, err := DecodeSchema(blob)
	if err != nil {
		return nil, err
	}
	s := &SchemaResponse{Schema: sch}
	s.KeyVersion = r.u32("key version")
	s.Scheme = r.u8("signature scheme")
	if r.err == nil && !sig.Scheme(s.Scheme).Valid() {
		return nil, fmt.Errorf("wire: schema response names unknown signature scheme %d", s.Scheme)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeStringList / DecodeStringList serve ListTablesResp.
func EncodeStringList(ss []string) []byte {
	out := appendU32(nil, uint32(len(ss)))
	for _, s := range ss {
		out = appendStr(out, s)
	}
	return out
}

// DecodeStringList parses a string list.
func DecodeStringList(body []byte) ([]string, error) {
	r := &reader{data: body}
	n := int(r.u32("count"))
	if r.err == nil && n > len(body) {
		return nil, errors.New("wire: implausible list length")
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str("item"))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeU64 / DecodeU64 serve DeleteResp (the removed-tuple count).
func EncodeU64(v uint64) []byte { return appendU64(nil, v) }

// DecodeU64 parses an 8-byte integer body.
func DecodeU64(body []byte) (uint64, error) {
	r := &reader{data: body}
	v := r.u64("value")
	if err := r.done(); err != nil {
		return 0, err
	}
	return v, nil
}

package edge

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/tamper"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// clockedEdge is an edge whose views stamp every VO with the second
// clock holds, bootstrapped from a central of the given shards on 1 KB
// pages.
func clockedEdge(t *testing.T, rows, shards int) (srv *central.Server, eg *Server, clock *atomic.Int64) {
	t.Helper()
	srv, addr := startCentralOpts(t, rows, central.Options{PageSize: 1024, Shards: shards})
	clock = new(atomic.Int64)
	clock.Store(time.Now().Unix())
	eg = New(addr)
	eg.now = clock.Load
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, eg, clock
}

// queryBody encodes a shard query on "items"; a nil project asks for
// every column.
func queryBody(shard uint32, project []string, preds ...query.Predicate) []byte {
	return (&wire.ShardQueryRequest{Shard: shard, Query: &wire.QueryRequest{
		Table: "items", Predicates: preds, Project: project, ProjectAll: project == nil,
	}}).Encode()
}

// pointBody is read.point's request: the row with key id, every column.
func pointBody(shard uint32, id int64) []byte {
	return queryBody(shard, nil, query.Predicate{Column: "id", Op: query.OpEQ, Value: schema.Int64(id)})
}

// rangeBody asks for keys lo..hi.
func rangeBody(shard uint32, lo, hi int64, project []string) []byte {
	return queryBody(shard, project,
		query.Predicate{Column: "id", Op: query.OpGE, Value: schema.Int64(lo)},
		query.Predicate{Column: "id", Op: query.OpLE, Value: schema.Int64(hi)})
}

// ask serves body through the edge's handler, memo included.
func ask(t *testing.T, eg *Server, body []byte) []byte {
	t.Helper()
	mt, resp, err := eg.dispatch(context.Background(), wire.MsgShardQueryReq, body, nil)
	if err != nil || mt != wire.MsgShardQueryResp {
		t.Fatalf("dispatch: %v, %v", mt, err)
	}
	return resp
}

// mustHit is ask for a request the current set has answered: the
// response must come from the memo.
func mustHit(t *testing.T, eg *Server, body []byte) []byte {
	t.Helper()
	hits := eg.Stats().AnswerMemoHits
	resp := ask(t, eg, body)
	if got := eg.Stats().AnswerMemoHits - hits; got != 1 {
		t.Fatalf("a repeated request made %d memo hits, want 1", got)
	}
	return resp
}

// walked is the response a walk of the current set builds for body, the
// memo bypassed: what a hit must equal byte for byte.
func walked(t *testing.T, eg *Server, body []byte) []byte {
	t.Helper()
	req, err := wire.DecodeShardQueryRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	q, err := eg.compile(req.Query)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.AppendShardQueryResponse(nil, func(dst []byte) ([]byte, []byte, error) {
		dst, set, err := eg.appendAnswer(context.Background(), dst, req.Query.Table, req.Shard, q)
		if err != nil {
			return nil, nil, err
		}
		return dst, set.smapBytes, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// verifyResponse checks a shard response as a client does: the map it
// carries against the central's key, its answer against the root that
// map pins for the shard, at the verifier's clock. It returns the
// decoded response.
func verifyResponse(ver *verify.Verifier, shard uint32, resp []byte) (*wire.ShardQueryResponse, error) {
	sq, err := wire.DecodeShardQueryResponse(resp)
	if err != nil {
		return nil, err
	}
	sm, err := ver.VerifySignedMap(sq.SignedMap, "items")
	if err != nil {
		return nil, err
	}
	if int(shard) >= len(sm.Map.Shards) {
		return nil, fmt.Errorf("shard %d outside a %d-shard map", shard, len(sm.Map.Shards))
	}
	return sq, ver.VerifyAnchored(sq.Resp.Result, sq.Resp.VO, sm.Map.Shards[shard].RootDigest)
}

// clientVerifier verifies as a client of srv's table on clock.
func clientVerifier(t *testing.T, srv *central.Server, eg *Server, clock func() int64) *verify.Verifier {
	t.Helper()
	sch, err := eg.Schema("items")
	if err != nil {
		t.Fatal(err)
	}
	return &verify.Verifier{Keys: trusted(srv.PublicKey()), Acc: srv.Accumulator(), Schema: sch, Now: clock}
}

// TestAnswerMemoCountsHitsAndMisses ties the memo's counters to a
// scripted sequence: a repeat of a request the current set answered is a
// hit, everything else a miss, a 256-row range included (it is too large
// to enter). A hit counts as a served query with its VO's bytes, as the
// walk it replaces did, and the counters are expvar keys.
func TestAnswerMemoCountsHitsAndMisses(t *testing.T) {
	_, eg := merkleEdge(t, 1000)
	a, b, c := pointBody(0, 17), pointBody(0, 400), pointBody(0, 999)
	wide := rangeRequest(t, 300, 555)
	base := eg.Stats()
	var vo1 uint64
	for i, step := range []struct {
		body      []byte
		hit, miss uint64
	}{
		{a, 0, 1}, {a, 1, 1}, {b, 1, 2}, {a, 2, 2}, {wide, 2, 3},
		{b, 3, 3}, {wide, 3, 4}, {c, 3, 5}, {c, 4, 5},
	} {
		before := eg.Stats()
		ask(t, eg, step.body)
		st := eg.Stats()
		if hits, misses := st.AnswerMemoHits-base.AnswerMemoHits, st.AnswerMemoMisses-base.AnswerMemoMisses; hits != step.hit || misses != step.miss {
			t.Fatalf("step %d: %d hits, %d misses; want %d, %d", i, hits, misses, step.hit, step.miss)
		}
		if st.QueriesServed != before.QueriesServed+1 {
			t.Fatalf("step %d: queries served %d → %d", i, before.QueriesServed, st.QueriesServed)
		}
		if i < 2 {
			// The hit counts the VO bytes the miss before it counted.
			if got := st.VOBytes - before.VOBytes; i == 0 {
				vo1 = got
			} else if got != vo1 {
				t.Fatalf("a hit counted %d VO bytes, its walk %d", got, vo1)
			}
		}
	}
	js, err := json.Marshal(eg.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"answer_memo_hits":4`, `"answer_memo_misses":5`} {
		if !bytes.Contains(js, []byte(key)) {
			t.Errorf("expvar JSON lacks %s: %s", key, js)
		}
	}
}

// TestAnswerMemoHitIsAFreshWalk: with the views' clock fixed, a hit is
// byte for byte what a walk of the same set builds — for every key of a
// small shard, for keys it does not hold, and for short ranges and
// projections.
func TestAnswerMemoHitIsAFreshWalk(t *testing.T) {
	const rows = 150
	_, eg, _ := clockedEdge(t, rows, 1)
	var bodies [][]byte
	for id := int64(0); id < rows+2; id++ {
		bodies = append(bodies, pointBody(0, id))
	}
	bodies = append(bodies,
		rangeBody(0, 10, 13, []string{"a3", "cat"}),
		rangeBody(0, 40, 45, nil),
		rangeBody(0, 0, 0, []string{"id"}),
		rangeBody(0, 100_000, 100_010, nil),
		queryBody(0, []string{"a9"}, query.Predicate{Column: "id", Op: query.OpLT, Value: schema.Int64(3)}),
		queryBody(0, []string{"a2", "a4"}, query.Predicate{Column: "id", Op: query.OpGT, Value: schema.Int64(rows - 4)}),
	)
	base := eg.Stats().AnswerMemoHits
	for _, body := range bodies {
		miss := ask(t, eg, body)
		hit := ask(t, eg, body)
		want := walked(t, eg, body)
		if !bytes.Equal(miss, want) || !bytes.Equal(hit, want) {
			t.Fatalf("request %x: the memo's answer differs from a walk's", body)
		}
	}
	if got := eg.Stats().AnswerMemoHits - base; got != uint64(len(bodies)) {
		t.Fatalf("%d hits for %d repeated requests", got, len(bodies))
	}
}

// TestAnswerMemoFollowsRefreshClockAndReshard: the memo never answers
// for a set other than the one that built its entries, and a hit carries
// the time it is served at.
func TestAnswerMemoFollowsRefreshClockAndReshard(t *testing.T) {
	ctx := context.Background()

	t.Run("refresh rewrites a memoized row", func(t *testing.T) {
		srv, eg, clock := clockedEdge(t, 200, 1)
		body := pointBody(0, 7)
		ask(t, eg, body)
		old := mustHit(t, eg, body)
		ver := clientVerifier(t, srv, eg, clock.Load)
		before, err := verifyResponse(ver, 0, old)
		if err != nil {
			t.Fatal(err)
		}
		row := freshRow(t, 7)
		lo := schema.Int64(7)
		if _, err := srv.DeleteRange("items", &lo, &lo); err != nil {
			t.Fatal(err)
		}
		if err := srv.Insert("items", row); err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Refresh(ctx, "items"); err != nil {
			t.Fatal(err)
		}
		hits := eg.Stats().AnswerMemoHits
		resp := ask(t, eg, body)
		if eg.Stats().AnswerMemoHits != hits {
			t.Fatal("the first answer after a refresh came from the memo")
		}
		if !bytes.Equal(resp, walked(t, eg, body)) {
			t.Fatal("the answer after a refresh is not the new set's walk")
		}
		after, err := verifyResponse(ver, 0, resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Resp.Result.Tuples; len(got) != 1 || !bytes.Equal(got[0].EncodeBytes(), row.EncodeBytes()) {
			t.Fatalf("after the refresh the answer holds %v, want %v", got, row)
		}
		if bytes.Equal(after.SignedMap, before.SignedMap) {
			t.Fatal("the answer after a refresh carries the superseded map")
		}
	})

	t.Run("clock moves past the skew window", func(t *testing.T) {
		srv, eg, clock := clockedEdge(t, 200, 1)
		body := pointBody(0, 42)
		stale := ask(t, eg, body)
		clock.Add(int64((verify.MaxClockSkew + time.Minute) / time.Second))
		ver := clientVerifier(t, srv, eg, clock.Load)
		if _, err := verifyResponse(ver, 0, stale); !errors.Is(err, verify.ErrFreshness) {
			t.Fatalf("the answer stamped before the clock moved: %v, want ErrFreshness", err)
		}
		resp := mustHit(t, eg, body)
		if _, err := verifyResponse(ver, 0, resp); err != nil {
			t.Fatalf("a hit after the clock moved: %v", err)
		}
		if !bytes.Equal(resp, walked(t, eg, body)) {
			t.Fatal("the hit is not restamped to the walk's second")
		}
	})

	t.Run("split and merge move shard indexes", func(t *testing.T) {
		srv, eg, clock := clockedEdge(t, 300, 2)
		ver := clientVerifier(t, srv, eg, clock.Load)
		one := pointBody(1, 250)
		ask(t, eg, one)
		mustHit(t, eg, one)
		if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Refresh(ctx, "items"); err != nil {
			t.Fatal(err)
		}
		// Index 1 now names the split's right child, not the shard the
		// memoized answer came from.
		resp := ask(t, eg, one)
		if !bytes.Equal(resp, walked(t, eg, one)) {
			t.Fatal("after a split, index 1 answered from the superseded set")
		}
		if _, err := verifyResponse(ver, 1, resp); err != nil {
			t.Fatal(err)
		}
		two := pointBody(2, 250)
		ask(t, eg, two)
		mustHit(t, eg, two)
		if _, err := srv.MergeShards(ctx, "items", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Refresh(ctx, "items"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eg.dispatch(ctx, wire.MsgShardQueryReq, two, nil); !errors.Is(err, wire.ErrShardMoved) {
			t.Fatalf("a memoized index past the merged map: %v, want ErrShardMoved", err)
		}
	})
}

// TestAnswerMemoDivergedAndTampering: a diverged replica refuses a
// memoized request, and a proxy that mutates the responses it relays in
// place — in the buffer the transport lent — cannot change what the
// memo serves next.
func TestAnswerMemoDivergedAndTampering(t *testing.T) {
	ctx := context.Background()
	_, eg, _ := clockedEdge(t, 200, 1)
	proxy := tamper.Wrap(eg.Handler(), tamper.CorruptVODigest())
	lent := make([]byte, 0, 1<<14)
	relay := func(body []byte) []byte {
		mt, resp, err := proxy(ctx, wire.MsgShardQueryReq, body, lent)
		if err != nil || mt != wire.MsgShardQueryResp {
			t.Fatalf("proxy: %v, %v", mt, err)
		}
		return resp
	}

	// The proxy relays first (the walk is memoized), then a hit.
	for _, id := range []int64{5, 6} {
		body := pointBody(0, id)
		want := walked(t, eg, body)
		for round := 0; round < 2; round++ {
			if bytes.Equal(relay(body), want) {
				t.Fatalf("key %d: the proxy relayed the honest answer", id)
			}
			if bytes.Equal(lent[:len(want)], want) {
				t.Fatalf("key %d: the proxy did not mutate the lent buffer in place", id)
			}
			if got := ask(t, eg, body); !bytes.Equal(got, want) {
				t.Fatalf("key %d, round %d: the honest answer after the proxy's differs from a walk", id, round)
			}
		}
	}

	body := pointBody(0, 9)
	ask(t, eg, body)
	mustHit(t, eg, body)
	eg.replica("items").diverged.Store(true)
	hits := eg.Stats().AnswerMemoHits
	if _, _, err := eg.dispatch(ctx, wire.MsgShardQueryReq, body, nil); !errors.Is(err, wire.ErrStaleReplica) {
		t.Fatalf("a diverged replica's memoized request: %v, want ErrStaleReplica", err)
	}
	if eg.Stats().AnswerMemoHits != hits {
		t.Fatal("a diverged replica served from its memo")
	}
}

// TestAnswerMemoFailsClosedThroughProxy: every attack of the catalogue,
// relayed by a tamper proxy from answers the edge serves out of its memo,
// is rejected by a client, and the honest edge behind it still verifies.
func TestAnswerMemoFailsClosedThroughProxy(t *testing.T) {
	ctx := context.Background()
	_, centralAddr := startCentralOpts(t, 200, central.Options{PageSize: 1024})
	eg := New(centralAddr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	var attack atomic.Pointer[tamper.Attack]
	var applied atomic.Bool
	proxyAddr := serveHandler(t, func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
		a := *attack.Load()
		return tamper.Wrap(eg.Handler(), tamper.Attack{Name: a.Name, Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			err := a.Apply(rs, w)
			if err == nil {
				applied.Store(true)
			}
			return err
		}})(ctx, mt, body, out)
	})
	cl, err := client.Dial(ctx, client.Config{EdgeAddr: proxyAddr, CentralAddr: centralAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(ctx); err != nil {
		t.Fatal(err)
	}
	preds := []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(10)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(15)},
	}
	project := []string{"id", "cat"}
	honest := tamper.Attack{Name: "none", Apply: func(*vo.ResultSet, *vo.VO) error { return tamper.ErrNotApplicable }}
	attack.Store(&honest)
	if _, err := cl.Query(ctx, "items", preds, project); err != nil {
		t.Fatal(err)
	}
	hits := eg.Stats().AnswerMemoHits
	for _, a := range tamper.All() {
		a := a
		attack.Store(&a)
		applied.Store(false)
		_, err := cl.Query(ctx, "items", preds, project)
		if !applied.Load() {
			t.Errorf("attack %q did not apply", a.Name)
			continue
		}
		if !errors.Is(err, client.ErrTampered) {
			t.Errorf("attack %q: err = %v, want ErrTampered", a.Name, err)
		}
	}
	if got := eg.Stats().AnswerMemoHits - hits; got != uint64(len(tamper.All())) {
		t.Fatalf("%d of %d attacked answers came from the memo", got, len(tamper.All()))
	}
	attack.Store(&honest)
	if _, err := cl.Query(ctx, "items", preds, project); err != nil {
		t.Fatalf("the honest answer after the attacks: %v", err)
	}
}

// TestAnswerMemoUnderConcurrentRefresh (run with -race): readers repeat a
// few requests, so most are hits, while a writer commits and refreshes.
// Every answer verifies against the map it carries.
func TestAnswerMemoUnderConcurrentRefresh(t *testing.T) {
	ctx := context.Background()
	srv, eg, clock := clockedEdge(t, 300, 2)
	ver := clientVerifier(t, srv, eg, clock.Load)

	const readers, refreshes = 4, 12
	var bodies [][]byte
	for id := int64(0); id < 8; id++ {
		bodies = append(bodies, pointBody(0, id), pointBody(1, 299-id))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var answers atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]byte, 0, 4096)
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				body := bodies[i%len(bodies)]
				_, resp, err := eg.dispatch(ctx, wire.MsgShardQueryReq, body, out[:0])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				shard := uint32(0)
				if i%2 == 1 {
					shard = 1
				}
				if _, err := verifyResponse(ver, shard, resp); err != nil {
					t.Errorf("reader %d: an answer failed its own map: %v", r, err)
					return
				}
				answers.Add(1)
			}
		}(r)
	}
	var writeErr error
	for i := 0; i < refreshes && writeErr == nil; i++ {
		lo := schema.Int64(int64(i % 8))
		if _, writeErr = srv.DeleteRange("items", &lo, &lo); writeErr != nil {
			break
		}
		if writeErr = srv.Insert("items", freshRow(t, lo.I)); writeErr != nil {
			break
		}
		_, writeErr = eg.Refresh(ctx, "items")
	}
	close(done)
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	st := eg.Stats()
	if st.AnswerMemoHits == 0 || answers.Load() == 0 {
		t.Fatalf("%d answers, %d memo hits: the readers did not race the writer on the memo", answers.Load(), st.AnswerMemoHits)
	}
	t.Logf("%d verified answers (%d memo hits, %d misses) raced %d refreshes", answers.Load(), st.AnswerMemoHits, st.AnswerMemoMisses, refreshes)
}

// answerSection is the answer a ShardQueryResp carries, its signed map
// cut off.
func answerSection(t *testing.T, resp []byte) []byte {
	t.Helper()
	n := binary.BigEndian.Uint32(resp)
	if int(n) > len(resp)-4 {
		t.Fatalf("a %d-byte response claims a %d-byte answer", len(resp), n)
	}
	return resp[4 : 4+n]
}

// TestAnswerMemoBoundsWhatAnEntryKeeps: an entry keeps the request body
// and the answer section, never the set's signed map, and the two
// together must fit memoMaxEntry. A many-megabyte body that compiles to
// a point query is answered but not kept, and a point answer still
// enters when the map carries far more shards than fit in the bound.
func TestAnswerMemoBoundsWhatAnEntryKeeps(t *testing.T) {
	t.Run("an oversized body is answered, not kept", func(t *testing.T) {
		_, eg, _ := clockedEdge(t, 200, 1)
		eq := query.Predicate{Column: "id", Op: query.OpEQ, Value: schema.Int64(5)}
		preds := make([]query.Predicate, 400)
		for i := range preds {
			preds[i] = eq
		}
		big := queryBody(0, nil, preds...)
		if len(big) <= memoMaxEntry {
			t.Fatalf("a %d-byte body does not pass the %d-byte bound", len(big), memoMaxEntry)
		}
		want := walked(t, eg, pointBody(0, 5))
		hits := eg.Stats().AnswerMemoHits
		for i := 0; i < 3; i++ {
			if !bytes.Equal(ask(t, eg, big), want) {
				t.Fatal("the repeated-predicate body is not answered as the point query")
			}
		}
		if got := eg.Stats().AnswerMemoHits - hits; got != 0 {
			t.Fatalf("an oversized body made %d memo hits, want 0", got)
		}
		if n := len(eg.replica("items").set.Load().memo.entries); n != 0 {
			t.Fatalf("the memo kept %d entries for an oversized body", n)
		}
	})

	t.Run("a large map stays out of the entry", func(t *testing.T) {
		_, eg, _ := clockedEdge(t, 3000, 120)
		set := eg.replica("items").set.Load()
		if len(set.smapBytes) <= memoMaxEntry {
			t.Fatalf("a 120-shard map is %d bytes, within the %d-byte bound", len(set.smapBytes), memoMaxEntry)
		}
		body := pointBody(40, set.smap.Map.Boundaries[39].I)
		resp := ask(t, eg, body)
		if !bytes.Equal(mustHit(t, eg, body), resp) {
			t.Fatal("the hit differs from the walk it repeats")
		}
		e := set.memo.entries[string(body)]
		if !bytes.Equal(e.answer, answerSection(t, resp)) {
			t.Fatal("the entry does not hold exactly the answer section")
		}
	})
}

// TestAnswerMemoStopsAdmittingWhenFull: a set's memo holds at most
// memoEntries entries. Once full, a fresh request is answered by a walk
// and not kept, while the entries it holds still hit.
func TestAnswerMemoStopsAdmittingWhenFull(t *testing.T) {
	_, eg, _ := clockedEdge(t, 200, 1)
	held := pointBody(0, 3)
	ask(t, eg, held)
	set := eg.replica("items").set.Load()
	filler := answerSection(t, walked(t, eg, held))
	for i := 1; i < memoEntries; i++ {
		set.memoize([]byte(fmt.Sprintf("request %d", i)), filler)
	}
	fresh := pointBody(0, 77)
	hits := eg.Stats().AnswerMemoHits
	for i := 0; i < 2; i++ {
		if !bytes.Equal(ask(t, eg, fresh), walked(t, eg, fresh)) {
			t.Fatal("a full memo's miss is not the walk")
		}
	}
	if got := eg.Stats().AnswerMemoHits - hits; got != 0 {
		t.Fatalf("a request first seen by a full memo made %d hits, want 0", got)
	}
	if n := len(set.memo.entries); n != memoEntries {
		t.Fatalf("the memo holds %d entries, want %d", n, memoEntries)
	}
	mustHit(t, eg, held)
}

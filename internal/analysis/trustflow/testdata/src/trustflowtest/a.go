package trustflowtest

import (
	"shardmap"
	"vo"
	"wire"
)

type edge struct {
	maps map[string]*shardmap.Signed
	last *wire.Delta
	pub  any
}

func (e *edge) verifyDelta(d *wire.Delta) error { return nil }

// Violations: decoded values trusted before a verify call dominates.

func (e *edge) storeUnverified(b []byte) error {
	sm, err := shardmap.DecodeSigned(b)
	if err != nil {
		return err
	}
	e.maps[sm.Table] = sm // want `stored into shared state without signature verification`
	return nil
}

func (e *edge) returnUnverified(b []byte) (*shardmap.Signed, error) {
	sm, err := shardmap.DecodeSigned(b)
	if err != nil {
		return nil, err
	}
	return sm, nil // want `returned without signature verification`
}

func (e *edge) verifyOneBranchOnly(b []byte, check bool) (*shardmap.Signed, error) {
	sm, err := shardmap.DecodeSigned(b)
	if err != nil {
		return nil, err
	}
	if check {
		if err := sm.Verify(e.pub); err != nil {
			return nil, err
		}
	}
	return sm, nil // want `returned without signature verification`
}

func (e *edge) applyUnchecked(b []byte) error {
	d, err := wire.DecodeDelta(b)
	if err != nil {
		return err
	}
	e.last = d // want `stored into shared state without signature verification`
	return nil
}

func returnRawVO(b []byte) (*vo.VO, error) {
	v, err := vo.DecodeVO(b)
	if err != nil {
		return nil, err
	}
	return v, nil // want `returned without signature verification`
}

// Conforming: verification dominates every trusting use.

func (e *edge) fetchVerified(b []byte) (*shardmap.Signed, error) {
	sm, err := shardmap.DecodeSigned(b)
	if err != nil {
		return nil, err
	}
	if err := sm.Verify(e.pub); err != nil {
		return nil, err
	}
	e.maps[sm.Table] = sm
	return sm, nil
}

func (e *edge) applyDelta(b []byte) error {
	d, err := wire.DecodeDelta(b)
	if err != nil {
		return err
	}
	if err := e.verifyDelta(d); err != nil {
		return err
	}
	e.last = d
	return nil
}

// The PR 5 scatter-gather shape: collecting decoded responses into a
// local slice is not a trusting use; the batch is verified before the
// stitched result leaves the function.
func (e *edge) scatterGather(bufs [][]byte) (*shardmap.Signed, error) {
	answers := make([]*shardmap.Signed, len(bufs))
	for i, b := range bufs {
		sm, err := shardmap.DecodeSigned(b)
		if err != nil {
			return nil, err
		}
		answers[i] = sm
	}
	bound := answers[0]
	if err := bound.Verify(e.pub); err != nil {
		return nil, err
	}
	return bound, nil
}

// Same shape, but skipping the verify step leaks the batch.
func (e *edge) scatterGatherUnverified(bufs [][]byte) (*shardmap.Signed, error) {
	answers := make([]*shardmap.Signed, len(bufs))
	for i, b := range bufs {
		sm, err := shardmap.DecodeSigned(b)
		if err != nil {
			return nil, err
		}
		answers[i] = sm
	}
	return answers[0], nil // want `returned without signature verification`
}

// Basic-typed decode results — the negotiated protocol version — carry
// no signature to verify and are not tracked.
func (e *edge) handshake(b []byte) (uint32, error) {
	v, err := wire.DecodeHello(b)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// DecodeStoredTuple reads the replica's own verified heap, not wire
// bytes: not a taint source.
func loadTuple(rec []byte) (*vo.StoredTuple, error) {
	t, err := vo.DecodeStoredTuple(rec)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// vo.DecodeAnswer taints both halves of the answer it parses.
func (e *edge) relayAnswer(b []byte) (*vo.VO, error) {
	_, w, err := vo.DecodeAnswer(b)
	if err != nil {
		return nil, err
	}
	return w, nil // want `returned without signature verification`
}

package tamper

// A compromised edge (§2) is an adversary that owns the channel in front
// of an honest edge: each wrapper below asks the honest handler — it may
// ask it anything — and rewrites what comes back. An rpc.Server serving
// one is a compromised edge.

import (
	"context"
	"errors"

	"edgeauth/internal/rpc"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/wire"
)

// Wrap returns the handler of an edge that runs a on every shard answer:
// the honest answer is decoded, a.Apply mutates its result set and VO,
// and the answer is encoded again. An answer a does not apply to
// (ErrNotApplicable) goes out as the honest edge built it; any other
// error from Apply is sent as the request's error frame.
func Wrap(h rpc.Handler, a Attack) rpc.Handler {
	return onResponse(h, func(mt wire.MsgType, _, resp []byte) ([]byte, error) {
		if mt != wire.MsgShardQueryResp {
			return resp, nil
		}
		sq, err := wire.DecodeShardQueryResponse(resp)
		if err != nil {
			return nil, err
		}
		return reencode(resp, a.Apply(sq.Resp.Result, sq.Resp.VO), sq.Encode)
	})
}

// WrapMap returns the handler of an edge that runs a on every shard map
// it serves: the body of a shard-map answer and the map inside each shard
// answer. Apply's errors are taken as Wrap takes them.
func WrapMap(h rpc.Handler, a MapAttack) rpc.Handler {
	rewrite := func(b []byte) ([]byte, error) {
		sm, err := shardmap.DecodeSigned(b)
		if err != nil {
			return nil, err
		}
		return reencode(b, a.Apply(sm), sm.Encode)
	}
	return onResponse(h, func(mt wire.MsgType, _, resp []byte) ([]byte, error) {
		switch mt {
		case wire.MsgShardMapResp:
			return rewrite(resp)
		case wire.MsgShardQueryResp:
			sq, err := wire.DecodeShardQueryResponse(resp)
			if err != nil {
				return nil, err
			}
			if sq.SignedMap, err = rewrite(sq.SignedMap); err != nil {
				return nil, err
			}
			return sq.Encode(), nil
		}
		return resp, nil
	})
}

// WrapPeer returns the handler of a relay peer that passes every
// snapshot and delta it serves through one hook of a, with the shard ref
// the request named.
func WrapPeer(h rpc.Handler, a PeerAttack) rpc.Handler {
	hook := a.NewHook()
	return onResponse(h, func(mt wire.MsgType, req, resp []byte) ([]byte, error) {
		var ref string
		switch mt {
		case wire.MsgSnapshotResp:
			r, err := wire.DecodeShardSnapshotRequest(req)
			if err != nil {
				return nil, err
			}
			ref = wire.ShardRef(r.Table, r.ShardID)
		case wire.MsgDeltaResp:
			r, err := wire.DecodeShardDeltaRequest(req)
			if err != nil {
				return nil, err
			}
			ref = wire.ShardRef(r.Table, r.ShardID)
		default:
			return resp, nil
		}
		return hook(mt, ref, resp), nil
	})
}

// reencode is what a rewrite sends given Apply's error: the mutated value
// encoded again, the honest bytes if the attack does not apply, or err.
func reencode(honest []byte, err error, encode func() []byte) ([]byte, error) {
	switch {
	case errors.Is(err, ErrNotApplicable):
		return honest, nil
	case err != nil:
		return nil, err
	}
	return encode(), nil
}

// onResponse returns h with rewrite run on every response h answers
// without an error; rewrite also sees the request body.
func onResponse(h rpc.Handler, rewrite func(mt wire.MsgType, req, resp []byte) ([]byte, error)) rpc.Handler {
	return func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
		rmt, resp, err := h(ctx, mt, body, out)
		if err != nil {
			return rmt, resp, err
		}
		if resp, err = rewrite(rmt, body, resp); err != nil {
			return 0, nil, err
		}
		return rmt, resp, nil
	}
}

package client

import (
	"context"
	"errors"
	"slices"
	"testing"

	"edgeauth/internal/rpc"
	"edgeauth/internal/tamper"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// TestSchemaRelabelFailsClosed: no digest binds a column's name —
// AttrDigest binds its index — so a proxy that swaps two column names in
// the schema it relays and in every answer's Columns had a client that
// verified under the edge's schema accept mislabelled rows. The client
// takes the schema from the central, over the channel the key comes by,
// so the relabelled answer fails verification.
func TestSchemaRelabelFailsClosed(t *testing.T) {
	ctx := context.Background()
	d := deploy(t, 100)
	swap := func(names []string) {
		i, j := slices.Index(names, "a2"), slices.Index(names, "a3")
		if i < 0 || j < 0 {
			t.Errorf("columns %v name no a2 and a3 to swap", names)
			return
		}
		names[i], names[j] = names[j], names[i]
	}
	relabelSchema := func(h rpc.Handler) rpc.Handler {
		return func(ctx context.Context, mt wire.MsgType, body, out []byte) (wire.MsgType, []byte, error) {
			rmt, resp, err := h(ctx, mt, body, out)
			if err != nil || rmt != wire.MsgSchemaResp {
				return rmt, resp, err
			}
			s, err := wire.DecodeSchemaResponse(resp)
			if err != nil {
				return 0, nil, err
			}
			names := make([]string, len(s.Schema.Columns))
			for i, c := range s.Schema.Columns {
				names[i] = c.Name
			}
			swap(names)
			for i := range s.Schema.Columns {
				s.Schema.Columns[i].Name = names[i]
			}
			return rmt, s.Encode(), nil
		}
	}
	h := tamper.Wrap(relabelSchema(d.honest), tamper.Attack{Name: "relabel-columns", Apply: func(rs *vo.ResultSet, _ *vo.VO) error {
		swap(rs.Columns)
		return nil
	}})
	d.hostile.Store(&h)

	res, err := d.client.Query(ctx, "items", nil, nil)
	if !errors.Is(err, ErrTampered) {
		var cols []string
		if res != nil {
			cols = res.Result.Columns
		}
		t.Fatalf("relabelled answer: columns %v, err %v; want ErrTampered", cols, err)
	}
}

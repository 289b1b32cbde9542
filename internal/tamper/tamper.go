// Package tamper is the adversary toolkit: a catalogue of attacks a
// compromised edge server could mount on query responses, and the proxy
// that mounts them. Each attack mutates a decoded answer; Wrap (and
// WrapMap, WrapPeer) turns an honest edge's rpc.Handler into the
// handler of an edge running it, and the security test-suite and the
// demo binaries serve that through real deployments to show that client
// verification rejects every one.
//
// The catalogue covers the two integrity properties of the paper — value
// authenticity and freedom from spurious tuples — plus protocol-level
// attacks (digest swapping, VO truncation, stale-key replay).
package tamper

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"edgeauth/internal/digest"
	"edgeauth/internal/naive"
	"edgeauth/internal/schema"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/vo"
)

// Attack mutates a query response in place, as a hacked edge would.
type Attack struct {
	// Name identifies the attack in test output and demos.
	Name string
	// Description says what the attack models.
	Description string
	// Apply performs the mutation. It returns an error when the response
	// shape makes the attack inapplicable (e.g. no tuples to modify).
	Apply func(rs *vo.ResultSet, w *vo.VO) error
}

// ErrNotApplicable signals a response the attack cannot target.
var ErrNotApplicable = errors.New("tamper: attack not applicable to this response")

// MutateValue flips a returned attribute value — the classic data-
// tampering attack (e.g. changing a price).
func MutateValue() Attack {
	return Attack{
		Name:        "mutate-value",
		Description: "modify an attribute value in a result tuple",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) == 0 || len(rs.Tuples[0].Values) == 0 {
				return ErrNotApplicable
			}
			j := len(rs.Tuples) / 2
			v := &rs.Tuples[j].Values[len(rs.Tuples[j].Values)-1]
			switch v.Type {
			case schema.TypeInt64:
				v.I += 1_000_000
			case schema.TypeFloat64:
				v.F *= -3.5
			case schema.TypeString:
				v.S = v.S + "!"
			case schema.TypeBytes:
				v.B = append(v.B, 0xFF)
			default:
				return ErrNotApplicable
			}
			return nil
		},
	}
}

// DropTuple removes a qualifying tuple from the result.
func DropTuple() Attack {
	return Attack{
		Name:        "drop-tuple",
		Description: "omit a qualifying tuple from the result",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) == 0 {
				return ErrNotApplicable
			}
			j := len(rs.Tuples) / 2
			rs.Tuples = append(rs.Tuples[:j], rs.Tuples[j+1:]...)
			rs.Keys = append(rs.Keys[:j], rs.Keys[j+1:]...)
			return nil
		},
	}
}

// InjectTuple fabricates a tuple and appends it to the result.
func InjectTuple() Attack {
	return Attack{
		Name:        "inject-tuple",
		Description: "introduce a spurious tuple into the result",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) == 0 {
				return ErrNotApplicable
			}
			fake := rs.Tuples[0].Clone()
			if len(fake.Values) > 0 && fake.Values[0].Type == schema.TypeInt64 {
				fake.Values[0].I += 424242
			}
			key := rs.Keys[0]
			if key.Type == schema.TypeInt64 {
				key.I += 424242
			}
			rs.Tuples = append(rs.Tuples, fake)
			rs.Keys = append(rs.Keys, key)
			return nil
		},
	}
}

// DuplicateTuple replays a legitimate tuple twice.
func DuplicateTuple() Attack {
	return Attack{
		Name:        "duplicate-tuple",
		Description: "return a qualifying tuple twice",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) == 0 {
				return ErrNotApplicable
			}
			rs.Tuples = append(rs.Tuples, rs.Tuples[0].Clone())
			rs.Keys = append(rs.Keys, rs.Keys[0])
			return nil
		},
	}
}

// CorruptVODigest flips bits in a D_S digest.
func CorruptVODigest() Attack {
	return Attack{
		Name:        "corrupt-vo-digest",
		Description: "alter a digest inside the VO",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if w.NumDS() == 0 {
				return ErrNotApplicable
			}
			d := w.DSDigest(0)
			d[len(d)/2] ^= 0x55
			return nil
		},
	}
}

// DropVODigest removes a D_S entry (hiding a filtered branch).
func DropVODigest() Attack {
	return Attack{
		Name:        "drop-vo-digest",
		Description: "omit a D_S digest from the VO",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if w.NumDS() == 0 {
				return ErrNotApplicable
			}
			w.DS = w.DS[len(w.DSDigest(0)):]
			return nil
		},
	}
}

// ForgeTopDigest replaces the enveloping-subtree digest with random bytes.
func ForgeTopDigest() Attack {
	return Attack{
		Name:        "forge-top-digest",
		Description: "substitute a forged signature for the subtree digest",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			rng := rand.New(rand.NewSource(1))
			forged := make(digest.Value, len(w.TopDigest))
			rng.Read(forged)
			w.TopDigest = forged
			return nil
		},
	}
}

// ForgeInteriorNode attacks the interior of the proof, whose digests are
// raw (unsigned) values: it grafts a fabricated subtree digest into the
// proof in place of the first sibling and presents a top digest of its
// own making — the forgery hash-only interior commitments would admit if
// the root were not signed. The doctored top digest does not match the
// root signature, so a client that verifies RootSig over TopDigest
// rejects the answer; the attack is what makes that signature
// load-bearing.
func ForgeInteriorNode() Attack {
	return Attack{
		Name:        "forge-interior-node",
		Description: "graft an unsigned fabricated subtree digest into the VO",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(w.RootSig) == 0 || len(w.TopDigest) != digest.Size || w.NumDS() == 0 {
				return ErrNotApplicable // no signed root, or no sibling to replace
			}
			forged := sha256.Sum256([]byte("tamper:forged-interior spurious subtree"))
			copy(w.DSDigest(0), forged[:digest.Size])
			root := sha256.Sum256(append(forged[:digest.Size:digest.Size], w.TopDigest...))
			w.TopDigest = root[:digest.Size]
			return nil
		},
	}
}

// CrossSchemeConfusion re-presents the VO in the shape of the retired
// per-node rsa scheme, whose VOs carried a recoverable signature in the
// top-digest slot and no detached root signature: the root signature is
// promoted into the top-digest slot. A client that derived the expected
// shape from the VO itself would follow the attacker's lead; one that
// checks the root signature under the trusted registry key's scheme
// rejects the shape outright.
func CrossSchemeConfusion() Attack {
	return Attack{
		Name:        "cross-scheme-confusion",
		Description: "present the VO in a recoverable-signature scheme's wire shape",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(w.RootSig) == 0 {
				return ErrNotApplicable
			}
			w.TopDigest = bytes.Clone(w.RootSig)
			w.RootSig = nil
			return nil
		},
	}
}

// MisliftDS slots digests in at the wrong place: it moves the first
// position the root's record recomputes, so the proof's digests enter the
// in-node tree one place off.
func MisliftDS() Attack {
	return Attack{
		Name:        "mislift-ds",
		Description: "change the position of a recomputed entry",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			w.Nodes = bytes.Clone(w.Nodes)
			count, runs, _, err := vo.NodeRecord(w.Nodes)
			if err != nil || len(runs) == 0 {
				return ErrNotApplicable
			}
			// The root's first run: u16 start, u16 length.
			start, n := int(binary.BigEndian.Uint16(runs)), int(binary.BigEndian.Uint16(runs[2:]))
			switch {
			case start+n < count:
				start++
			case start > 0:
				start--
			default:
				return ErrNotApplicable // every position is recomputed
			}
			binary.BigEndian.PutUint16(runs, uint16(start))
			return nil
		},
	}
}

// CrossTableReplay relabels the result as coming from another table.
func CrossTableReplay(otherTable string) Attack {
	return Attack{
		Name:        "cross-table-replay",
		Description: "replay a result under a different table's name",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if rs.Table == otherTable {
				return ErrNotApplicable
			}
			rs.Table = otherTable
			return nil
		},
	}
}

// StaleKeyReplay rewinds the VO's key version, modelling an edge serving
// data signed under a retired key.
func StaleKeyReplay(oldVersion uint32) Attack {
	return Attack{
		Name:        "stale-key-replay",
		Description: "present the VO under an expired signing-key version",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			w.KeyVersion = oldVersion
			return nil
		},
	}
}

// RelabelKeyVersion presents an old answer under the key version the
// central has since rotated to, signatures untouched. The version field
// of a VO is not signed, so only the signature check under the NEW key
// catches it — which a client that remembers proven signatures by their
// bytes alone would skip.
func RelabelKeyVersion(newVersion uint32) Attack {
	return Attack{
		Name:        "relabel-key-version",
		Description: "present signatures made under a retired key as the current key version's",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if w.KeyVersion == newVersion {
				return ErrNotApplicable
			}
			w.KeyVersion = newVersion
			return nil
		},
	}
}

// BackdateTimestamp rewinds the VO's timestamp by a year — the §3.4
// attack where a compromised edge masquerades stale data as current by
// stamping the response into a retired key's validity window. A client
// that resolves key validity against the edge-supplied timestamp accepts
// it; one that uses its own clock (with a bounded skew window) rejects
// it.
func BackdateTimestamp() Attack {
	return Attack{
		Name:        "backdate-timestamp",
		Description: "rewind the VO timestamp to masquerade stale data as current",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			w.Timestamp -= 365 * 24 * 3600
			return nil
		},
	}
}

// SwapProjectionDigest moves a D_P digest into D_S, probing set-confusion.
func SwapProjectionDigest() Attack {
	return Attack{
		Name:        "swap-projection-digest",
		Description: "move a filtered-attribute digest into the tuple set",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if w.NumDP() == 0 {
				return ErrNotApplicable
			}
			moved := w.DPDigest(0)
			w.DP = w.DP[len(moved):]
			w.AppendDS(moved)
			return nil
		},
	}
}

// RelabelKeyType re-presents a row's key as a datum of another type
// whose key encoding is the same bytes: int64 20 as the eight bytes
// 0x8000000000000014. A key's encoding is not type-tagged, so the tuple
// hash cannot tell the two apart; only a check of the key's type against
// the schema's key column can, and a client without one hands its caller
// the relabelled key.
func RelabelKeyType() Attack {
	return Attack{
		Name:        "relabel-key-type",
		Description: "present a row's key as another type with the same key encoding",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Keys) == 0 {
				return ErrNotApplicable
			}
			k := &rs.Keys[0]
			enc := k.EncodeKey(nil)
			if k.Type == schema.TypeBytes {
				*k = schema.Str(string(enc))
			} else {
				*k = schema.Bytes(enc)
			}
			return nil
		},
	}
}

// MutateKeyColumn rewrites a returned key column and leaves the row's
// key as it is. The key column is the one column a tuple commits to with
// no attribute digest — the tuple hash binds the key itself — so only a
// check that a returned key column is its row's key catches it.
func MutateKeyColumn() Attack {
	return Attack{
		Name:        "mutate-key-column",
		Description: "rewrite a returned key column, leaving the row's key",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) == 0 {
				return ErrNotApplicable
			}
			for i := range rs.Tuples[0].Values {
				v := &rs.Tuples[0].Values[i]
				if v.Type != rs.Keys[0].Type || !v.Equal(rs.Keys[0]) {
					continue // not the key column
				}
				switch v.Type {
				case schema.TypeInt64:
					v.I++
				case schema.TypeFloat64:
					v.F = -v.F - 1
				case schema.TypeString:
					v.S += "!"
				default:
					v.B = append(bytes.Clone(v.B), 0)
				}
				return nil
			}
			return ErrNotApplicable
		},
	}
}

// ReorderProjection swaps the first two result columns, their names and
// every row's values together. Each value still sits under its own
// column's name, so every digest recomputes: the VO proves the values,
// not the order the query asked for them in. Only a client that checks
// the answer's columns against its query catches it.
func ReorderProjection() Attack {
	return Attack{
		Name:        "reorder-projection",
		Description: "swap two result columns, names and values alike",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Columns) < 2 {
				return ErrNotApplicable
			}
			rs.Columns = append([]string(nil), rs.Columns...)
			rs.Columns[0], rs.Columns[1] = rs.Columns[1], rs.Columns[0]
			for _, t := range rs.Tuples {
				t.Values[0], t.Values[1] = t.Values[1], t.Values[0]
			}
			return nil
		},
	}
}

// The column-proof attacks move the digests of the D_P run, which is
// each row's column proof, row by row, the same number of digests for
// every row: one digest for each column subtree the row leaves out, in
// left to right order — attribute digests of single columns and group
// digests of several alike.

// dpRow returns how many D_P digests each row of the answer carries, 0
// if it carries none.
func dpRow(rs *vo.ResultSet, w *vo.VO) int {
	if len(rs.Tuples) == 0 || w.NumDP()%len(rs.Tuples) != 0 {
		return 0
	}
	return w.NumDP() / len(rs.Tuples)
}

// SwapColumnProofDigests trades the first and the last digest of a row's
// column proof: for a projection of the leftmost columns, an attribute
// digest and the group digest of the last columns, each then covering the
// other's columns.
func SwapColumnProofDigests() Attack {
	return Attack{
		Name:        "swap-column-proof-digests",
		Description: "trade an attribute digest and a column group digest within a row's column proof",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			k := dpRow(rs, w)
			if k < 2 || bytes.Equal(w.DPDigest(0), w.DPDigest(k-1)) {
				return ErrNotApplicable
			}
			w.DP = bytes.Clone(w.DP)
			first, last := bytes.Clone(w.DPDigest(0)), w.DPDigest(k-1)
			copy(w.DPDigest(0), last)
			copy(last, first)
			return nil
		},
	}
}

// MoveColumnGroupAcrossRows gives the second row the last digest of the
// first row's column proof — a column group digest, for a projection of
// the leftmost columns — in place of its own.
func MoveColumnGroupAcrossRows() Attack {
	return Attack{
		Name:        "move-column-group-across-rows",
		Description: "put one row's column group digest in another row's column proof",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			k := dpRow(rs, w)
			if k == 0 || len(rs.Tuples) < 2 || bytes.Equal(w.DPDigest(k-1), w.DPDigest(2*k-1)) {
				return ErrNotApplicable
			}
			w.DP = bytes.Clone(w.DP)
			copy(w.DPDigest(2*k-1), w.DPDigest(k-1))
			return nil
		},
	}
}

// DropDPSibling leaves the last digest of the last row's column proof
// out: the columns it covered would go unproven.
func DropDPSibling() Attack {
	return Attack{
		Name:        "drop-dp-sibling",
		Description: "omit one digest of a row's column proof",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if w.NumDP() == 0 {
				return ErrNotApplicable
			}
			w.DP = w.DP[:len(w.DP)-len(w.DPDigest(0))]
			return nil
		},
	}
}

// DuplicateDPSibling repeats the first digest of the first row's column
// proof, so every digest after it enters the proof one place late.
func DuplicateDPSibling() Attack {
	return Attack{
		Name:        "duplicate-dp-sibling",
		Description: "repeat one digest of a row's column proof",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if w.NumDP() == 0 {
				return ErrNotApplicable
			}
			d := w.DPDigest(0)
			w.DP = append(append(bytes.Clone(w.DP[:len(d)]), d...), w.DP[len(d):]...)
			return nil
		},
	}
}

// CompensateDigest rewrites a returned attribute value and rebalances
// another digest of the VO so that a multiplicative commitment would not
// notice: were the combiner a product in Z*_m, the rewritten value's hash
// h(old) would sit in it at the same level as every D_P digest, so
// multiplying D_P[0] by h(old)·h(new)⁻¹ mod m would cancel the change.
// The result set must project at least one column away (D_P non-empty).
//
// It is the forgery the tree admitted while it committed by that product
// with raw, unsigned entries. It commits by ordered hashes now, which a
// rewritten value changes at every level up to the signed root.
func CompensateDigest() Attack {
	return compensate("compensate-digest",
		"rewrite a returned value and rebalance an unsigned D_P digest by h(old)·h(new)⁻¹",
		func(rs *vo.ResultSet, w *vo.VO) ([]byte, int) {
			if w.NumDP() == 0 {
				return nil, 0
			}
			return w.DPDigest(0), 0
		})
}

// CompensateSibling is CompensateDigest rebalancing a D_S sibling
// instead: in a product the rewritten value's factor enters one level
// above a leaf's tuple digests, so the sibling, taken for a tuple digest
// of a leaf, is multiplied by the factor lifted once more (g is a
// homomorphism).
func CompensateSibling() Attack {
	return compensate("compensate-ds-sibling",
		"rewrite a returned value and rebalance an unsigned D_S sibling by the lifted h(old)·h(new)⁻¹",
		func(rs *vo.ResultSet, w *vo.VO) ([]byte, int) {
			if w.NumDS() == 0 {
				return nil, 0
			}
			return w.DSDigest(0), 1
		})
}

// CompensateAcrossRows is CompensateDigest rebalancing the last row's D_P
// digest for a value rewritten in the first row: a flat product does not
// know which row a factor belongs to.
func CompensateAcrossRows() Attack {
	return compensate("compensate-across-rows",
		"rewrite a value in one row and rebalance another row's D_P digest by h(old)·h(new)⁻¹",
		func(rs *vo.ResultSet, w *vo.VO) ([]byte, int) {
			if len(rs.Tuples) < 2 || w.NumDP() < 2 {
				return nil, 0
			}
			return w.DPDigest(w.NumDP() - 1), 0
		})
}

// compensate builds the CompensateDigest family: target picks the digest
// to rebalance and how many more times g is applied to the factor before
// it is multiplied in (nil: not applicable).
func compensate(name, desc string, target func(rs *vo.ResultSet, w *vo.VO) ([]byte, int)) Attack {
	return Attack{
		Name:        name,
		Description: desc,
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(rs.Tuples) == 0 || len(rs.Columns) == 0 {
				return ErrNotApplicable
			}
			d, lifts := target(rs, w)
			if d == nil {
				return ErrNotApplicable
			}
			col := len(rs.Columns) - 1
			v := &rs.Tuples[0].Values[col]
			key := rs.Keys[0].EncodeKey(nil)
			hOld := naive.HashAttribute(nil, rs.DB, rs.Table, rs.Columns[col], key, v.Canonical(nil))
			switch v.Type {
			case schema.TypeInt64:
				v.I += 1_000_000
			case schema.TypeString:
				v.S += "!"
			default:
				return ErrNotApplicable
			}
			hNew := naive.HashAttribute(nil, rs.DB, rs.Table, rs.Columns[col], key, v.Canonical(nil))
			m := new(big.Int).Lsh(big.NewInt(1), 8*digest.Size) // m = 2^128
			inv := new(big.Int).ModInverse(new(big.Int).SetBytes(hNew), m)
			if inv == nil {
				return ErrNotApplicable // attribute hashes are units; not reached
			}
			r := new(big.Int).SetBytes(hOld)
			r.Mul(r, inv).Mod(r, m)
			// Lift the factor: g(x) = x^15 mod m, the combiner's g, lifts times.
			for e := big.NewInt(15); lifts > 0; lifts-- {
				r.Exp(r, e, m)
			}
			// The digest's bytes as a residue, rebalanced.
			x := new(big.Int).SetBytes(d)
			x.Mul(x, r).Mod(x, m)
			x.FillBytes(d)
			return nil
		},
	}
}

// ReplayStaleShard substitutes a previously-captured shard answer for
// the current one — the stale-single-shard attack on a range-partitioned
// table. A compromised edge serves three fresh shards and one frozen
// one, hoping the per-shard VOs (each individually authentic) stitch
// into an accepted cross-shard answer. The replayed VO anchors at the
// shard's OLD root digest, so a client that binds every shard answer to
// the current signed shard map rejects it.
//
// The attack targets responses covering the stale answer's key region
// (so a scatter-gather's other shards pass through untouched).
func ReplayStaleShard(staleRS *vo.ResultSet, staleVO *vo.VO) Attack {
	return Attack{
		Name:        "replay-stale-shard",
		Description: "answer one shard of a range query from a frozen old replica",
		Apply: func(rs *vo.ResultSet, w *vo.VO) error {
			if len(staleRS.Keys) == 0 || len(rs.Keys) == 0 {
				return ErrNotApplicable
			}
			lo, hi := staleRS.Keys[0], staleRS.Keys[len(staleRS.Keys)-1]
			if rs.Keys[0].Compare(hi) > 0 || rs.Keys[len(rs.Keys)-1].Compare(lo) < 0 {
				return ErrNotApplicable // different shard's region
			}
			rs.Columns = append([]string(nil), staleRS.Columns...)
			rs.Keys = append([]schema.Datum(nil), staleRS.Keys...)
			rs.Tuples = nil
			for _, t := range staleRS.Tuples {
				rs.Tuples = append(rs.Tuples, t.Clone())
			}
			w.KeyVersion = staleVO.KeyVersion
			w.TopLevel = staleVO.TopLevel
			w.TopDigest = staleVO.TopDigest.Clone()
			w.DS = bytes.Clone(staleVO.DS)
			w.DP = bytes.Clone(staleVO.DP)
			w.Nodes = bytes.Clone(staleVO.Nodes)
			// Keep the current timestamp: the attack is the stale CONTENT,
			// not a backdated clock (that one is BackdateTimestamp).
			return nil
		},
	}
}

// MapAttack mutates the shard map a compromised edge serves — hiding,
// re-routing or rewinding shards of a range-partitioned table.
type MapAttack struct {
	Name        string
	Description string
	// Apply mutates the map in place (WrapMap hands it a map decoded
	// from the honest answer). Returning an error marks the attack
	// inapplicable.
	Apply func(sm *shardmap.Signed) error
}

// DropShardFromMap removes the last shard (and its lower boundary) from
// the served map — the drop-a-shard attack: a range query routed by the
// doctored map would silently never ask the hidden shard, truncating
// the answer. The map signature covers the boundary keys and the shard
// list, so the mutation cannot be re-signed and clients reject the map.
func DropShardFromMap() MapAttack {
	return MapAttack{
		Name:        "drop-shard-from-map",
		Description: "hide the last shard of a partitioned table from the served shard map",
		Apply: func(sm *shardmap.Signed) error {
			n := len(sm.Map.Shards)
			if n < 2 {
				return ErrNotApplicable
			}
			sm.Map.Shards = sm.Map.Shards[:n-1]
			sm.Map.Boundaries = sm.Map.Boundaries[:n-2]
			return nil
		},
	}
}

// RewireShardDigests swaps two shards' root digests in the served map —
// an edge trying to answer shard i's range with shard j's (authentic)
// tree. Breaks the map signature just like dropping a shard.
func RewireShardDigests() MapAttack {
	return MapAttack{
		Name:        "rewire-shard-digests",
		Description: "swap two shards' root digests in the served shard map",
		Apply: func(sm *shardmap.Signed) error {
			if len(sm.Map.Shards) < 2 {
				return ErrNotApplicable
			}
			a, b := 0, len(sm.Map.Shards)-1
			sm.Map.Shards[a].RootDigest, sm.Map.Shards[b].RootDigest =
				sm.Map.Shards[b].RootDigest, sm.Map.Shards[a].RootDigest
			return nil
		},
	}
}

// ReplayPreSplitMap captures the first shard map the compromised edge
// serves and replays it verbatim once the central commits a newer
// partition epoch (an online split or merge). The replayed map is
// correctly signed — the signature proves nothing about freshness — so
// the mutation survives signature verification; detection rests on the
// client's partition-epoch ratchet: a map regressing below an epoch the
// client already verified fails closed (verify.ErrMapReplay). Routing
// on the replayed map would otherwise hide the shards a split created.
func ReplayPreSplitMap() MapAttack {
	var first *shardmap.Signed
	return MapAttack{
		Name:        "replay-pre-split-map",
		Description: "replay the correctly signed pre-split shard map after an online split commits",
		Apply: func(sm *shardmap.Signed) error {
			if first == nil {
				first = &shardmap.Signed{Map: sm.Map.Clone(), Sig: sm.Sig}
				return ErrNotApplicable // nothing to replay yet: serve honestly, remember
			}
			if sm.Map.MapEpoch <= first.Map.MapEpoch || sm.Map.Epoch != first.Map.Epoch {
				return ErrNotApplicable // no transition has landed since the capture
			}
			sm.Map = first.Map.Clone()
			sm.Sig = first.Sig
			return nil
		},
	}
}

// StripMapEpoch serves the map in the shape a build without epoch
// chaining signed: no partition generation (MapEpoch and ParentEpoch
// zero) and no shard identities. Such maps were once exempt from the
// client's replay ratchet, so one replayed after a split bypassed it
// entirely; every map now must name its generation, and the client
// rejects the shape itself — before, and regardless of, the signature
// (the e2e tests re-sign the stripped map to prove it).
func StripMapEpoch() MapAttack {
	return MapAttack{
		Name:        "strip-map-epoch",
		Description: "erase the partition generation and shard IDs from the served shard map to slip under the replay ratchet",
		Apply: func(sm *shardmap.Signed) error {
			sm.Map.MapEpoch, sm.Map.ParentEpoch = 0, 0
			for i := range sm.Map.Shards {
				sm.Map.Shards[i].ID = 0
			}
			return nil
		},
	}
}

// StripShardID erases one shard's stable identity from the served map.
// Edges carry shard stores across a reshard by ID, so an ID-less shard
// could be mistaken for any other; like StripMapEpoch it is rejected on
// shape alone.
func StripShardID() MapAttack {
	return MapAttack{
		Name:        "strip-shard-id",
		Description: "erase a shard's stable ID from the served shard map",
		Apply: func(sm *shardmap.Signed) error {
			sm.Map.Shards[len(sm.Map.Shards)-1].ID = 0
			return nil
		},
	}
}

// HideSplit rewrites the served map to pretend the most recent split
// never happened: the first two shards are folded back into one (the
// left child's root digest claiming the merged range) and the partition
// epoch is rewound. Unlike ReplayPreSplitMap this forges map CONTENT —
// the central never signed this shape — so the map signature itself
// fails and clients reject it as tampered.
func HideSplit() MapAttack {
	return MapAttack{
		Name:        "hide-split",
		Description: "fold a split's children back into one shard in the served map, rewinding the partition epoch",
		Apply: func(sm *shardmap.Signed) error {
			m := sm.Map
			if m.MapEpoch < 2 || len(m.Shards) < 2 {
				return ErrNotApplicable // no transition to hide
			}
			m.Shards = append(m.Shards[:1], m.Shards[2:]...)
			m.Boundaries = m.Boundaries[1:]
			m.MapEpoch--
			if m.ParentEpoch > 0 {
				m.ParentEpoch--
			}
			return nil
		},
	}
}

// CrossEpochSplice serves the current (post-transition) partition shape
// but with a root digest from a superseded epoch spliced into one
// shard — an edge pairing new partition metadata with a retired shard's
// base data. The central signed both digests, but never this pairing,
// so the map signature fails closed.
func CrossEpochSplice() MapAttack {
	var first *shardmap.Signed
	return MapAttack{
		Name:        "cross-epoch-splice",
		Description: "splice a superseded epoch's shard root digest into the current served map",
		Apply: func(sm *shardmap.Signed) error {
			if first == nil {
				first = &shardmap.Signed{Map: sm.Map.Clone(), Sig: sm.Sig}
				return ErrNotApplicable
			}
			if sm.Map.MapEpoch <= first.Map.MapEpoch || sm.Map.Epoch != first.Map.Epoch {
				return ErrNotApplicable
			}
			for i := range sm.Map.Shards {
				for _, old := range first.Map.Shards {
					if !bytes.Equal(old.RootDigest, sm.Map.Shards[i].RootDigest) {
						sm.Map.Shards[i].RootDigest = append([]byte(nil), old.RootDigest...)
						return nil
					}
				}
			}
			return ErrNotApplicable // every digest survived the transition unchanged
		},
	}
}

// MapAttacks returns the shard-map attack catalogue.
func MapAttacks() []MapAttack {
	return []MapAttack{
		DropShardFromMap(),
		RewireShardDigests(),
		ReplayPreSplitMap(),
		StripMapEpoch(),
		StripShardID(),
		HideSplit(),
		CrossEpochSplice(),
	}
}

// All returns the full catalogue (attacks needing parameters get
// placeholder arguments suitable for single-table deployments) of attacks
// a client rejects under every scheme.
func All() []Attack {
	return []Attack{
		MutateValue(),
		DropTuple(),
		InjectTuple(),
		DuplicateTuple(),
		CorruptVODigest(),
		DropVODigest(),
		ForgeTopDigest(),
		ForgeInteriorNode(),
		CrossSchemeConfusion(),
		MisliftDS(),
		CrossTableReplay("other_table"),
		SwapProjectionDigest(),
		BackdateTimestamp(),
		CompensateDigest(),
		CompensateSibling(),
		CompensateAcrossRows(),
		RelabelKeyType(),
		MutateKeyColumn(),
		ReorderProjection(),
		SwapColumnProofDigests(),
		MoveColumnGroupAcrossRows(),
		DropDPSibling(),
		DuplicateDPSibling(),
	}
}

// Validate sanity-checks the catalogue.
func Validate(attacks []Attack) error {
	seen := map[string]bool{}
	for _, a := range attacks {
		if a.Name == "" || a.Apply == nil {
			return fmt.Errorf("tamper: malformed attack %+v", a)
		}
		if seen[a.Name] {
			return fmt.Errorf("tamper: duplicate attack %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

package digest

import (
	"encoding/hex"
	"testing"
)

// goldenVectors were captured by running the PARENT commit (615aa5e, the
// last one whose arithmetic was math/big throughout) over the inputs
// below. Tables, WAL records, snapshot pages and signatures written
// before the limb kernel hold digests like these; the kernel must
// reproduce every byte or persisted state stops verifying.
var goldenVectors = []struct {
	name                                        string
	p                                           func() Params
	hashAttr, hashBytes, combine, removed, lift string
}{
	{"default", DefaultParams,
		"14edf79d30676420349bebd9852cedb7", "8b6bd9a0e6fce4c126a1a725e2773e5b",
		"be95aa7f2da55352b476b35fbee7b7e3", "28a501058621bf6006145938342fbd37",
		"9a4056474e64934840f82c98933b9b0b"},
}

// TestGoldenVectorsFromParentCommit: HashAttribute and HashBytes of fixed
// inputs, Combine of ten digests, that combination with one factor
// removed (AccFrom + Remove), and its triple lift.
func TestGoldenVectorsFromParentCommit(t *testing.T) {
	for _, g := range goldenVectors {
		t.Run(g.name, func(t *testing.T) {
			a := MustNew(g.p())
			check := func(what string, got Value, want string) {
				t.Helper()
				if hex.EncodeToString(got) != want {
					t.Errorf("%s = %x, parent commit produced %s", what, []byte(got), want)
				}
			}
			check("HashAttribute", a.HashAttribute("edgedb", "orders", "amount",
				[]byte("0000000000000042"), []byte("some attribute value")), g.hashAttr)
			check("HashBytes", a.HashBytes("golden", []byte("payload")), g.hashBytes)
			ds := make([]Value, 10)
			for i := range ds {
				ds[i] = a.HashBytes("golden", []byte{byte(i)})
			}
			c, err := a.Combine(ds...)
			if err != nil {
				t.Fatal(err)
			}
			check("Combine of 10", c, g.combine)
			acc, err := a.AccFrom(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.Remove(ds[3]); err != nil {
				t.Fatal(err)
			}
			check("AccFrom(Combine).Remove", acc.Value(), g.removed)
			l, err := a.Lift(c, 3)
			if err != nil {
				t.Fatal(err)
			}
			check("Lift(Combine, 3)", l, g.lift)
		})
	}
}

package naive

import (
	"encoding/hex"
	"testing"

	"edgeauth/internal/digest"
)

// goldenVectors were captured by running the PARENT commit (615aa5e, the
// last one whose arithmetic was math/big throughout) over the inputs
// below. Naive stores and signatures written before the limb kernel hold
// digests like these; the kernel must reproduce every byte or persisted
// state stops verifying.
var goldenVectors = []struct {
	name                               string
	hashAttr, hashBytes, combine, lift string
}{
	{"default",
		"14edf79d30676420349bebd9852cedb7", "8b6bd9a0e6fce4c126a1a725e2773e5b",
		"be95aa7f2da55352b476b35fbee7b7e3", "9a4056474e64934840f82c98933b9b0b"},
}

// TestGoldenVectorsFromParentCommit: HashAttribute and a labelled hash of
// fixed inputs, the combination of ten digests, and g applied three more
// times to it over the kernel.
func TestGoldenVectorsFromParentCommit(t *testing.T) {
	for _, g := range goldenVectors {
		t.Run(g.name, func(t *testing.T) {
			check := func(what string, got digest.Value, want string) {
				t.Helper()
				if hex.EncodeToString(got) != want {
					t.Errorf("%s = %x, parent commit produced %s", what, []byte(got), want)
				}
			}
			check("HashAttribute", HashAttribute(nil, "edgedb", "orders", "amount",
				[]byte("0000000000000042"), []byte("some attribute value")), g.hashAttr)
			check("HashBytes", hashBytes("golden", []byte("payload")), g.hashBytes)
			ds := make([]digest.Value, 10)
			for i := range ds {
				ds[i] = hashBytes("golden", []byte{byte(i)})
			}
			c, err := combine(nil, ds...)
			if err != nil {
				t.Fatal(err)
			}
			check("Combine of 10", c, g.combine)
			check("Lift(Combine, 3)", lift(c, 3), g.lift)
		})
	}
}

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
	{"size7-e3", func() Params { return Params{Size: 7, Exponent: 3, Mode: Mod2K} },
		"14edf79d306765", "8b6bd9a0e6fce5", "a57718afc00093", "34baee92fe5483", "c333422480ff6b"},
	{"size20-e65537", func() Params { return Params{Size: 20, Exponent: 65537, Mode: Mod2K} },
		"14edf79d30676420349bebd9852cedb770dcab21", "8b6bd9a0e6fce4c126a1a725e2773e5a8bb84293",
		"9bdd3acc4f024c2014ceacd3e0ad0fe099e43be9", "ef2f61e3ec9029c35d7abaaed59ebcd5537e444b",
		"5b93e346b3d4f875ea6e31526a93199deffc3be9"},
	{"size64-e15", func() Params { return Params{Size: 64, Exponent: 15, Mode: Mod2K} },
		"14edf79d30676420349bebd9852cedb770dcab20199b7b3239ffa228e4bd5aa1f41d0d50dee10ddfc8125e11a1763ef86c78225361b6ec4ad7427cd2a5a86c41",
		"8b6bd9a0e6fce4c126a1a725e2773e5a8bb842922f6f36d633f6ecd650be853012263f39f87f2f7f69f8cd72a314747d4b2ade4942ee26c795048169a048617f",
		"b18385dd5b327a9ccd17e7934ff4a8e585cd86da6a916c50185e3731ae43dae7436924f67763bfba7909d1a27f5e0026ada28181be3f32a1f988a17040605961",
		"847e805d18323eba91e2f1169da7ca6b07a76a1f9844f413e159c2a8427b866df5c80edfbfb7575f5976514b7cee2e84da3217582fe0dd91be3d6699f8379205",
		"69eaa54fc7c04603612ad89933d4c4aea75a500c6aa3f951472bc189549f188a8dfd6684fcdf9d1e4ba16996a6099bf942fc3ddab63dbd66caf8ecb693548ca1"},
	{"modbig257-e3", bigProfile,
		"00edf79d30676420349bebd9852cedb770dcab20199b7b3239ffa228e4bd5a8ac0",
		"006bd9a0e6fce4c126a1a725e2773e5a8bb842922f6f36d633f6ecd650be848ecf",
		"003aeb128c316c8a939145478cc26f4ff04713e25bba244b9adfadb8fd38828722",
		"00d491e04a9afe5d567cb805bc52a5b0a3b63fd0da8b86438df447e68b29e8e10e",
		"0002d556f50560f139e9edbb8da0ec1c95bb3c9d3e63a25a5ac1ddda685f7b3e80"},
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

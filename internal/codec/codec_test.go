package codec

import (
	"bytes"
	"strings"
	"testing"

	"edgeauth/internal/schema"
)

// TestReaderReadsWhatAppendWrites: every primitive round-trips, in the
// bytes the format fixes (big-endian integers, u32 lengths, 0/1 flags),
// and a record read to its end is Done.
func TestReaderReadsWhatAppendWrites(t *testing.T) {
	tup := schema.NewTuple(schema.Int64(7), schema.Str("seven"))
	out := AppendU8(nil, 9)
	out = AppendFlag(out, true)
	out = AppendFlag(out, false)
	out = AppendU32(out, 0x01020304)
	out = AppendU64(out, 0x05060708090a0b0c)
	out = AppendStr(out, "ab")
	out = AppendBytes(out, []byte{0xee})
	out = AppendBytes(out, nil)
	out = schema.Str("k").Encode(out)
	out = tup.Encode(out)
	want := []byte{9, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 2, 'a', 'b', 0, 0, 0, 1, 0xee, 0, 0, 0, 0}
	if !bytes.Equal(out[:len(want)], want) {
		t.Fatalf("primitives encode as %x, want %x", out[:len(want)], want)
	}

	r := NewReader("test", out)
	if v := r.U8("u8"); v != 9 {
		t.Fatalf("U8 = %d", v)
	}
	if !r.Flag("set") || r.Flag("clear") {
		t.Fatal("flags did not round-trip")
	}
	if v := r.U32("u32"); v != 0x01020304 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64("u64"); v != 0x05060708090a0b0c {
		t.Fatalf("U64 = %#x", v)
	}
	if s := r.Str("str"); s != "ab" {
		t.Fatalf("Str = %q", s)
	}
	v := r.View("view")
	if !bytes.Equal(v, []byte{0xee}) || cap(v) != 1 {
		t.Fatalf("View = %x (cap %d), want ee capped at its end", v, cap(v))
	}
	if b := r.Bytes("empty"); b == nil || len(b) != 0 {
		t.Fatalf("Bytes of an empty run = %#v, want an empty slice", b)
	}
	if d := r.Datum("datum"); d.Compare(schema.Str("k")) != 0 {
		t.Fatalf("Datum = %v", d)
	}
	if got := r.Tuple("tuple"); !bytes.Equal(got.EncodeBytes(), tup.EncodeBytes()) {
		t.Fatalf("Tuple = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefuses: each way a record can be malformed is an error that
// names the reader's prefix and the field, the first failure sticks, and
// every read after it returns a zero value.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"truncated u32", []byte{0, 0, 1}, func(r *Reader) { r.U32("count") }, "test: truncated count at offset 0"},
		{"truncated string", AppendU32(nil, 3), func(r *Reader) { r.Str("name") }, "test: truncated name at offset 4"},
		{"length past the end", append(AppendU32(nil, 1<<31), 'x'), func(r *Reader) { r.View("blob") }, "truncated blob"},
		{"flag 2", []byte{2}, func(r *Reader) { r.Flag("presence flag") }, "test: presence flag 2 is neither 0 nor 1"},
		{"bad datum", []byte{0xff}, func(r *Reader) { r.Datum("bound") }, "test: bound at offset 0: schema: unknown datum type 255"},
		{"bad tuple", []byte{0, 1}, func(r *Reader) { r.Tuple("row") }, "test: row at offset 0: schema:"},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8("u8") }, "test: 1 trailing bytes"},
		// Three 4-byte entries need 12 bytes; 11 are left.
		{"implausible count", append(AppendU32(nil, 3), make([]byte, 11)...), func(r *Reader) { r.Count("id count", 4) }, "test: implausible id count 3"},
	} {
		r := NewReader("test", tc.data)
		tc.read(&r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		if tc.name == "trailing bytes" {
			continue
		}
		if r.U8("after") != 0 || r.U32("after") != 0 || r.Str("after") != "" || r.Bytes("after") != nil || r.Count("after", 1) != 0 || r.Err() != err {
			t.Errorf("%s: a read after the failure returned a value or replaced the error", tc.name)
		}
	}
}

// TestCountIsBoundedByTheBytesLeft: a count is accepted exactly when its
// entries, at their smallest, fit in what is left after the count word.
func TestCountIsBoundedByTheBytesLeft(t *testing.T) {
	for _, tc := range []struct {
		count, minEach, left int
		ok                   bool
	}{
		{0, 8, 0, true},
		{3, 4, 12, true},
		{3, 4, 11, false},
		{1 << 31, 1, 1024, false},
		{1<<32 - 1, 1 << 30, 1024, false}, // the product overflows 32 bits
	} {
		r := NewReader("test", append(AppendU32(nil, uint32(tc.count)), make([]byte, tc.left)...))
		n := r.Count("count", tc.minEach)
		if ok := r.Err() == nil; ok != tc.ok || ok && n != tc.count || !ok && n != 0 {
			t.Errorf("%d entries of %d bytes in %d: got %d, %v; want accepted = %v", tc.count, tc.minEach, tc.left, n, r.Err(), tc.ok)
		}
	}
}

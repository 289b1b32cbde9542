package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, MsgShardQueryReq, 42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	mt, id, body, err := ReadFrameV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgShardQueryReq || id != 42 || string(body) != "hello" {
		t.Fatalf("round trip: mt=%v id=%d body=%q", mt, id, body)
	}
}

func TestFrameV2EmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, MsgListTablesReq, 0xFFFFFFFF, nil); err != nil {
		t.Fatal(err)
	}
	mt, id, body, err := ReadFrameV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgListTablesReq || id != 0xFFFFFFFF || len(body) != 0 {
		t.Fatalf("round trip: mt=%v id=%d body=%q", mt, id, body)
	}
}

func TestFrameV2RejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, MsgShardQueryReq, 7, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, _, err := ReadFrameV2(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated v2 frame accepted")
	}
	// A bare handshake frame (too short for a request ID) is rejected too.
	var bare bytes.Buffer
	if err := WriteFrame(&bare, MsgShardQueryReq, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrameV2(&bare); err == nil {
		t.Fatal("bare frame accepted as a numbered one")
	}
}

func TestWireErrorRoundTrip(t *testing.T) {
	cases := []*WireError{
		UnknownTable("edge", "ghost"),
		StaleReplica("items", "edge: delta starts at version 7, replica at 3"),
		Unsupported("central", MsgShardQueryReq),
		{Code: CodeInternal, Msg: "disk on fire"},
	}
	sentinels := []error{ErrUnknownTable, ErrStaleReplica, ErrUnsupported, nil}
	for i, we := range cases {
		got := DecodeWireError(we.Encode())
		if got.Code != we.Code || got.Table != we.Table || got.Msg != we.Msg {
			t.Fatalf("case %d: %+v decoded to %+v", i, we, got)
		}
		if s := sentinels[i]; s != nil && !errors.Is(got, s) {
			t.Fatalf("case %d: decoded error does not match sentinel %v", i, s)
		}
		// Codes never cross-match.
		for j, s := range sentinels {
			if s != nil && i != j && errors.Is(got, s) {
				t.Fatalf("case %d matched foreign sentinel %v", i, s)
			}
		}
	}
}

func TestWireErrorMalformedBody(t *testing.T) {
	e := DecodeWireError([]byte("garbage"))
	if e.Code != CodeInternal || e.Msg != "garbage" {
		t.Fatalf("malformed body decoded to %+v", e)
	}
}

func TestToWireError(t *testing.T) {
	we := UnknownTable("edge", "x")
	if ToWireError(we) != we {
		t.Fatal("WireError not passed through")
	}
	plain := errors.New("boom")
	got := ToWireError(plain)
	if got.Code != CodeInternal || got.Msg != "boom" {
		t.Fatalf("plain error coerced to %+v", got)
	}
}

// TestWriteFramedMatchesWriteFrameV2: a frame built in place — header
// room, then the body — goes out as the bytes WriteFrameV2 writes for the
// same body, in a single Write.
func TestWriteFramedMatchesWriteFrameV2(t *testing.T) {
	body := []byte("response body built in place")
	var want bytes.Buffer
	if err := WriteFrameV2(&want, MsgShardQueryResp, 77, body); err != nil {
		t.Fatal(err)
	}
	frame := append(make([]byte, FrameHeaderSize), body...)
	var w countingWriter
	if err := WriteFramed(&w, MsgShardQueryResp, 77, frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), want.Bytes()) {
		t.Fatalf("WriteFramed wrote %x, WriteFrameV2 %x", w.buf.Bytes(), want.Bytes())
	}
	if w.writes != 1 {
		t.Fatalf("WriteFramed made %d writes, want 1", w.writes)
	}
	mt, id, got, err := ReadFrameV2(&w.buf)
	if err != nil || mt != MsgShardQueryResp || id != 77 || !bytes.Equal(got, body) {
		t.Fatalf("read back %v %d %q, %v", mt, id, got, err)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

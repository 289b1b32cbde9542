package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
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

// TestReadFrameBoundsAllocationByBytesReceived: a frame's length word is
// the sender's claim, and a reader allocates for the bytes that arrive,
// not for the claim — four bytes announcing MaxFrameSize and then nothing
// cost under a megabyte, on the handshake framing (which any dialer
// reaches) and the numbered one alike. Up to bodyChunk the claim is
// taken at its word, so a query answer is still one allocation that the
// reads fill in place; a frame past it arrives whole through the doubling.
func TestReadFrameBoundsAllocationByBytesReceived(t *testing.T) {
	readers := map[string]func(r io.Reader) ([]byte, error){
		"bare":     func(r io.Reader) ([]byte, error) { _, body, err := ReadFrame(r); return body, err },
		"numbered": func(r io.Reader) ([]byte, error) { _, _, body, err := ReadFrameV2(r); return body, err },
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, read := range readers {
		t.Run(name, func(t *testing.T) {
			// The claim alone, then the claim followed by 100 KB.
			for _, sent := range []int{0, 100 << 10} {
				in := append(binary.BigEndian.AppendUint32(nil, MaxFrameSize), make([]byte, sent)...)
				var err error
				got := allocated(func() { _, err = read(bytes.NewReader(in)) })
				if err == nil || !strings.Contains(err.Error(), "short frame") || !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
					t.Fatalf("1 GiB claimed, %d bytes sent: err = %v, want a short-frame error", sent, err)
				}
				if got >= 1<<20 {
					t.Errorf("1 GiB claimed, %d bytes sent: %d bytes allocated, want under 1 MiB", sent, got)
				}
			}
		})
	}

	// 45 KB is a read.range answer. A one-byte frame pays for the length
	// word (it escapes through io.Reader) and the body; a 45 KB one pays
	// the same two, and the body it returns is that one allocation.
	frame := func(n int) []byte {
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, MsgShardQueryResp, 9, bytes.Repeat([]byte{0xA5}, n)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var r bytes.Reader
	allocsFor := func(in []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			r.Reset(in)
			if _, _, _, err := ReadFrameV2(&r); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, answer := allocsFor(frame(1)), allocsFor(frame(45_000))
	if small != 2 || answer != small {
		t.Errorf("%.0f allocations for a 1-byte frame, %.0f for a 45 KB one, want 2 and 2", small, answer)
	}
	r.Reset(frame(45_000))
	if _, _, body, _ := ReadFrameV2(&r); len(body) != 45_000 || cap(body) != 45_000 {
		t.Errorf("45 KB body has len %d cap %d: not the one exact allocation", len(body), cap(body))
	}

	// Past bodyChunk the body still arrives whole and exact.
	want := make([]byte, 5*bodyChunk+123)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var big bytes.Buffer
	if err := WriteFrameV2(&big, MsgSnapshotResp, 3, want); err != nil {
		t.Fatal(err)
	}
	mt, id, body, err := ReadFrameV2(&big)
	if err != nil || mt != MsgSnapshotResp || id != 3 || !bytes.Equal(body, want) {
		t.Fatalf("multi-chunk frame: mt=%v id=%d len=%d err=%v", mt, id, len(body), err)
	}
}

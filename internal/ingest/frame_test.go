package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Payload: []byte("node-c401-001")},
		{Type: FrameData, Records: 37, Seq: 12, Payload: []byte("%jobid 1\n")},
		{Type: FrameMeta, Seq: 13, Payload: []byte("job=\"1\"\nnodes=2\n")},
		{Type: FrameAck, Seq: 99},
		{Type: FrameData, Records: 0xFFFF, Seq: 1<<63 + 5, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf bytes.Buffer
	for i := range frames {
		if err := WriteFrame(&buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != frames[i].Type || got.Records != frames[i].Records || got.Seq != frames[i].Seq {
			t.Fatalf("frame %d header mismatch: %+v vs %+v", i, got, frames[i])
		}
		if !bytes.Equal(got.Payload, frames[i].Payload) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

// corrupt returns a valid encoded frame with one byte transformed.
func corrupt(t *testing.T, mutate func([]byte)) []byte {
	t.Helper()
	b := AppendFrame(nil, &Frame{Type: FrameData, Records: 2, Seq: 7, Payload: []byte("payload")})
	if mutate != nil {
		mutate(b)
	}
	return b
}

func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"bad magic", corrupt(t, func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad type", corrupt(t, func(b []byte) { b[4] = 200 }), ErrBadType},
		{"reserved set", corrupt(t, func(b []byte) { b[5] = 1 }), ErrBadReserved},
		{"oversized length", corrupt(t, func(b []byte) {
			binary.BigEndian.PutUint32(b[8:12], 1<<30)
		}), ErrOversized},
		{"checksum mismatch", corrupt(t, func(b []byte) { b[len(b)-1] ^= 0xFF }), ErrChecksum},
		{"truncated header", corrupt(t, nil)[:10], io.ErrUnexpectedEOF},
		{"truncated payload", corrupt(t, nil)[:headerSize+3], io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := c.raw
			_, err := ReadFrame(bytes.NewReader(raw), 0)
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

func TestReadFrameRespectsMaxPayload(t *testing.T) {
	raw := AppendFrame(nil, &Frame{Type: FrameData, Payload: bytes.Repeat([]byte{1}, 100)})
	if _, err := ReadFrame(bytes.NewReader(raw), 64); !errors.Is(err, ErrOversized) {
		t.Fatalf("payload over the limit must fail, got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(raw), 100); err != nil {
		t.Fatalf("payload at the limit must pass, got %v", err)
	}
}

// TestReadFrameNeverOverReads pins that ReadFrame consumes exactly one
// frame, leaving trailing bytes untouched.
func TestReadFrameNeverOverReads(t *testing.T) {
	raw := AppendFrame(nil, &Frame{Type: FrameData, Records: 1, Seq: 3, Payload: []byte("abc")})
	trailer := []byte("TRAILER")
	r := bytes.NewReader(append(append([]byte{}, raw...), trailer...))
	if _, err := ReadFrame(r, 0); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	if !bytes.Equal(rest, trailer) {
		t.Fatalf("ReadFrame over-read: %d trailing bytes left, want %d", len(rest), len(trailer))
	}
}

func TestJobMetaRoundTrip(t *testing.T) {
	m := &JobMeta{
		JobID:    "2895134",
		User:     "user with space",
		AppLabel: "NAMD",
		Category: "Molecular Dynamics",
		Pop:      "community",
		Nodes:    8,
		Cores:    128,
		Submit:   1400000000,
		Start:    1400003600,
		ExitCode: 137,
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJobMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	// A collector that predates the exit field still parses: exit 0.
	old, err := ParseJobMeta([]byte("job=\"1\"\nnodes=2\n"))
	if err != nil || old.ExitCode != 0 {
		t.Fatalf("meta without exit= parsed as %+v, %v", old, err)
	}
}

func TestJobMetaErrors(t *testing.T) {
	if _, err := (&JobMeta{Nodes: 1}).Encode(); err == nil {
		t.Fatal("encode without job id must fail")
	}
	if _, err := (&JobMeta{JobID: "x"}).Encode(); err == nil {
		t.Fatal("encode without nodes must fail")
	}
	bad := []string{
		"job=\"1\"\nnodes=2\nmystery=3\n", // unknown key
		"job=\"1\"\nnodes=zero\n",         // bad int
		"job=\"1\" nodes=2\n",             // not key=value per line
		"nodes=2\n",                       // missing job
		"job=\"1\"\n",                     // missing nodes
		"job=unquoted\nnodes=2\n",         // unquoted string
	}
	for _, s := range bad {
		if _, err := ParseJobMeta([]byte(s)); err == nil {
			t.Fatalf("ParseJobMeta(%q) must fail", s)
		}
	}
}

func TestLedgerConservation(t *testing.T) {
	l := NewLedger(2, nil)
	l.Received(0, 100)
	l.Received(1, 50)
	l.Received(routerShard, 7)
	l.Summarized(0, 90)
	l.Dropped(0, ReasonShard, 10)
	l.Summarized(1, 50)
	l.Dropped(routerShard, ReasonDecode, 7)
	snap := l.Snapshot()
	if err := snap.Check(0); err != nil {
		t.Fatal(err)
	}
	if snap.Received != 157 || snap.Summarized != 140 || snap.DroppedSum != 17 {
		t.Fatalf("bad totals: %+v", snap)
	}
	if got := snap.Reasons(); len(got) != 2 || got[0] != ReasonDecode || got[1] != ReasonShard {
		t.Fatalf("bad reasons: %v", got)
	}
}

func TestLedgerCheckDetectsImbalance(t *testing.T) {
	l := NewLedger(1, nil)
	l.Received(0, 10)
	l.Summarized(0, 4)
	if err := l.Snapshot().Check(0); err == nil {
		t.Fatal("unbalanced ledger must fail Check")
	}
	if err := l.Snapshot().Check(6); err != nil {
		t.Fatalf("pending should balance the books: %v", err)
	}
	// Globally balanced but per-shard skewed: shard 0 under-settled,
	// shard 1 over-settled. Check(0) must still catch it.
	l2 := NewLedger(2, nil)
	l2.Received(0, 10)
	l2.Summarized(1, 10)
	if err := l2.Snapshot().Check(0); err == nil {
		t.Fatal("per-shard imbalance must fail Check")
	}
}

package ingest

import (
	"bytes"
	"testing"

	"repro/internal/taccstats"
)

// FuzzIngestFrame hammers the wire decoder: arbitrary bytes must either
// parse into a frame that re-encodes to the same bytes (a fixed point)
// or fail cleanly — never panic, never read past the frame, and never
// allocate beyond the payload cap. A read into a reused buffer holding
// stale bytes must give the same frame. The server feeds its frame
// reader straight from untrusted TCP peers, so this is the trust
// boundary.
func FuzzIngestFrame(f *testing.F) {
	f.Add(AppendFrame(nil, &Frame{Type: FrameHello, Payload: []byte("node-c401-001")}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameData, Records: 3, Seq: 9, Payload: []byte("%jobid 1\n%host c1\n1000 begin\ncpu 1 2\n")}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameMeta, Seq: 2, Payload: []byte("job=\"1\"\nnodes=2\n")}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameAck, Seq: 41}))
	f.Add([]byte{})
	f.Add([]byte("SRM2 but not really a frame"))
	f.Add(srm1Frame(&Frame{Type: FrameData, Records: 3, Seq: 9, Payload: []byte("%jobid 1\n%host c1\n1000 begin\ncpu 1 2\n")}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameData})[:headerSize-1]) // truncated header
	corrupt := AppendFrame(nil, &Frame{Type: FrameData, Records: 1, Payload: []byte("xyz")})
	corrupt[len(corrupt)-1] ^= 0xFF // checksum mismatch
	f.Add(corrupt)

	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, err := ReadFrame(r, maxPayload)
		if err != nil {
			if frame != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		if len(frame.Payload) > maxPayload {
			t.Fatalf("payload %d exceeds cap %d", len(frame.Payload), maxPayload)
		}
		// Exactly one frame consumed: encoded length == bytes read.
		consumed := len(data) - r.Len()
		if consumed != headerSize+len(frame.Payload) {
			t.Fatalf("consumed %d bytes, want %d", consumed, headerSize+len(frame.Payload))
		}
		// Re-encode / re-read fixed point.
		raw := AppendFrame(nil, frame)
		if !bytes.Equal(raw, data[:consumed]) {
			t.Fatal("re-encode does not reproduce the input bytes")
		}
		again, err := ReadFrame(bytes.NewReader(raw), maxPayload)
		if err != nil {
			t.Fatalf("re-read of valid frame failed: %v", err)
		}
		if again.Type != frame.Type || again.Records != frame.Records || again.Seq != frame.Seq || !bytes.Equal(again.Payload, frame.Payload) {
			t.Fatal("re-read frame differs")
		}
		for _, room := range []int{len(frame.Payload) / 2, len(frame.Payload)} {
			stale := bytes.Repeat([]byte{0xA5}, headerSize+room)
			reused, _, err := readFrame(bytes.NewReader(data), maxPayload, stale)
			if err != nil || reused.Type != frame.Type || reused.Records != frame.Records || reused.Seq != frame.Seq || !bytes.Equal(reused.Payload, frame.Payload) {
				t.Fatalf("read into a reused buffer of %d bytes' room: %+v, %v; want %+v", room, reused, err, frame)
			}
		}
		// A data frame's payload flows into the chunk decoder, which
		// must also never panic on wire input.
		if frame.Type == FrameData {
			decodeChunkNoPanic(t, frame.Payload)
		}
	})
}

// decodeChunkNoPanic shields the fuzzer from expected decode errors
// while still catching panics.
func decodeChunkNoPanic(t *testing.T, payload []byte) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("chunk decoder panicked: %v", p)
		}
	}()
	if c, err := taccstats.DecodeChunk(payload); err == nil && c == nil {
		t.Fatal("nil chunk without error")
	}
}

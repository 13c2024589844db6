package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/rng"
	"repro/internal/taccstats"
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
	if want := map[string]uint64{ReasonDecode: 7, ReasonShard: 10}; !maps.Equal(snap.Dropped, want) {
		t.Fatalf("drops by reason = %v, want %v", snap.Dropped, want)
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

// srm1Frame encodes f in the retired SRM1 layout: a 28-byte header
// ending in the payload's 64-bit FNV-1a.
func srm1Frame(f *Frame) []byte {
	b := make([]byte, 28, 28+len(f.Payload))
	binary.BigEndian.PutUint32(b[0:4], 0x53524D31)
	b[4] = f.Type
	binary.BigEndian.PutUint16(b[6:8], f.Records)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(f.Payload)))
	binary.BigEndian.PutUint64(b[12:20], f.Seq)
	binary.BigEndian.PutUint64(b[20:28], fnv64a(f.Payload))
	return append(b, f.Payload...)
}

// TestFrameChecksumIsCRC32C pins the SRM2 header: its sum is the
// payload's CRC-32C (the standard check value for "123456789" is
// 0xE3069283), an SRM1 frame is refused by its magic, and a flip of any
// bit of the sum is caught.
func TestFrameChecksumIsCRC32C(t *testing.T) {
	f := &Frame{Type: FrameData, Records: 9, Seq: 1, Payload: []byte("123456789")}
	raw := AppendFrame(nil, f)
	if len(raw) != headerSize+len(f.Payload) || headerSize != 24 || string(raw[:4]) != "SRM2" {
		t.Fatalf("frame %q: want the 24-byte SRM2 header, then the payload", raw)
	}
	if got := binary.BigEndian.Uint32(raw[20:24]); got != 0xE3069283 {
		t.Fatalf("header sum 0x%08x, want crc32c(\"123456789\") = 0xE3069283", got)
	}
	if _, err := ReadFrame(bytes.NewReader(srm1Frame(f)), 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("an SRM1 frame read as %v, want ErrBadMagic", err)
	}
	for bit := 0; bit < 32; bit++ {
		b := bytes.Clone(raw)
		b[20+bit/8] ^= 1 << (bit % 8)
		if _, err := ReadFrame(bytes.NewReader(b), 0); !errors.Is(err, ErrChecksum) {
			t.Fatalf("sum bit %d flipped: %v, want ErrChecksum", bit, err)
		}
	}
}

// TestDecodedFramesCopyTheBuffer feeds a server a client's hello, meta
// and data frames read into one buffer, and scribbles over the buffer
// after each frame, as the next frame's read would. Whatever the server
// keeps of a frame -- the client's id, the meta, the decoded chunk, by
// the scanner or, for one host's CRLF payloads, the archive decoder --
// must be its own copy: every job still summarizes exactly as the batch
// pipeline does and carries its meta.
func TestDecodedFramesCopyTheBuffer(t *testing.T) {
	h := newHarness(t, Config{Shards: 2})
	jobs := genTestJobs(t, 29, 3, 2, 3000)
	var stream bytes.Buffer
	stream.Write(AppendFrame(nil, &Frame{Type: FrameHello, Payload: []byte("scribble-client")}))
	seq, crlf := uint64(0), 0
	add := func(f *Frame) {
		seq++
		f.Seq = seq
		stream.Write(AppendFrame(nil, f))
	}
	for _, tj := range jobs {
		meta, err := tj.meta.Encode()
		if err != nil {
			t.Fatal(err)
		}
		add(&Frame{Type: FrameMeta, Payload: meta})
		for ni := range tj.arch.Nodes {
			node := &tj.arch.Nodes[ni]
			for off := 0; off < len(node.Samples); off += 8 {
				samples := node.Samples[off:min(off+8, len(node.Samples))]
				payload, err := taccstats.EncodeChunk(&taccstats.Chunk{JobID: tj.arch.JobID, Host: node.Host, Samples: samples})
				if err != nil {
					t.Fatal(err)
				}
				if ni == 1 {
					payload = bytes.ReplaceAll(payload, []byte("\n"), []byte("\r\n"))
					crlf++
				}
				add(&Frame{Type: FrameData, Records: uint16(len(samples)), Payload: payload})
			}
		}
	}
	if crlf == 0 {
		t.Fatal("no job has a second host to send in CRLF form")
	}

	scribble := func(buf []byte) {
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xA5
		}
	}
	client, buf := h.srv.hello(&stream, nil)
	if client == nil {
		t.Fatal("the hello was refused")
	}
	for {
		scribble(buf)
		f, b, err := readFrame(&stream, 0, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		h.srv.processFrame(client, f, time.Now())
	}
	h.srv.mu.Lock()
	_, ok := h.srv.clients["scribble-client"]
	h.srv.mu.Unlock()
	if !ok || client.last != seq {
		t.Fatalf("client state under its id: %v, at seq %d; want it at %d", ok, client.last, seq)
	}
	st := h.drainAndCheck()
	if want := totalRecords(jobs); st.Ledger.Summarized != want {
		t.Fatalf("summarized %d records, sent %d: %+v", st.Ledger.Summarized, want, st.Ledger)
	}
	cfg := taccstats.DefaultConfig()
	for _, tj := range jobs {
		rec, ok := lookup(h.sink, tj.meta.JobID)
		if !ok {
			t.Fatalf("job %s missing from warehouse", tj.meta.JobID)
		}
		if !reflect.DeepEqual(rec.Summary, refSummary(t, tj.arch, cfg)) || rec.User != tj.meta.User || rec.Submit != tj.meta.Submit {
			t.Fatalf("job %s: record diverged from what its frames carried: %+v", tj.meta.JobID, rec)
		}
	}
}

// TestAllocFrameRoundTrip pins the wire's per-frame allocations. Once a
// window of frames is acknowledged, SendChunk encodes into a freed frame
// buffer and allocates nothing at all; and the server's read of a frame
// into its connection's buffer allocates only the Frame.
func TestAllocFrameRoundTrip(t *testing.T) {
	chunk := benchShapedChunk(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// The peer acks the hello, then the whole first window in one ack, so
	// every one of its frames holds a buffer when the ack frees them. From
	// there it only reads, into one buffer, so the client's sends are all
	// that allocates.
	acked := make(chan net.Conn, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			t.Error(err)
			close(acked)
			return
		}
		br := bufio.NewReaderSize(conn, connBufferSize)
		ack, sink := make([]byte, headerSize), make([]byte, connBufferSize)
		var f *Frame
		var buf []byte
		for i := 0; i <= clientWindow; i++ {
			if f, buf, err = readFrame(br, 0, buf); err == nil && (i == 0 || i == clientWindow) {
				err = writeAck(conn, ack, f.Seq)
			}
			if err != nil {
				t.Error(err)
				conn.Close()
				close(acked)
				return
			}
		}
		acked <- conn
		for {
			if _, err := br.Read(sink); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := NewClient(ClientConfig{Addr: lis.Addr().String(), ID: "alloc-client"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clientWindow; i++ {
		if err := c.SendChunk(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	conn, ok := <-acked
	if !ok {
		t.FailNow()
	}
	defer conn.Close()
	if a := testing.AllocsPerRun(clientWindow/2, func() {
		if err := c.SendChunk(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("SendChunk after an acked window: %v allocations, want 0", a)
	}
	closed, stop := context.WithTimeout(ctx, 10*time.Millisecond)
	defer stop()
	_ = c.Close(closed) // the peer acks no more: Close gives up on the frames in flight

	payload, err := taccstats.EncodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendFrame(nil, &Frame{Type: FrameData, Records: uint16(len(chunk.Samples)), Seq: 1, Payload: payload})
	r := bytes.NewReader(raw)
	br := bufio.NewReaderSize(r, connBufferSize)
	var buf []byte
	if a := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		br.Reset(r)
		f, b, err := readFrame(br, 0, buf)
		if err != nil || f.Seq != 1 || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("read %+v, %v", f, err)
		}
		buf = b
	}); a != 1 {
		t.Errorf("a frame read into a reused buffer: %v allocations, want 1 (the Frame)", a)
	}
}

// TestAllocIngestFrame pins a data frame's steady-state cost on the
// server: its read into the connection's buffer, its decode into a
// recycled chunk, its route to a shard and the shard's fold of it
// allocate only the Frame, and after AllocsPerRun's warm-up run no
// decode takes a new chunk from the pool. The frames carry eight samples
// each of one host of one long job, whose fold stays open throughout.
// Each run routes an empty message, which the shard takes as a no-op,
// behind the frame and waits until the shard has taken it: the shard
// handles its queue in order, so by then it has folded the frame and
// returned its chunk. AllocsPerRun runs on one processor, so that chunk
// waits in the pool for the next decode.
func TestAllocIngestFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation; the alloc gate runs without -race")
	}
	const runs, perFrame, jobID = 100, 8, "alloc-job"
	h := newHarness(t, Config{Shards: 2})
	draw := apps.Catalog()[0].Sig.Draw(rng.New(11))
	draw.WallSeconds = 600 * perFrame * (runs + 2)
	arch := taccstats.Collect(taccstats.DefaultConfig(), taccstats.JobInfo{ID: jobID, Start: 1_400_000_000, Hosts: []string{"c401-001"}}, draw, rng.New(12))
	samples := arch.Nodes[0].Samples
	var stream []byte
	frames := 0
	for ; frames <= runs; frames++ {
		chunk := &taccstats.Chunk{JobID: jobID, Host: arch.Nodes[0].Host, Samples: samples[frames*perFrame : (frames+1)*perFrame]}
		payload, err := taccstats.EncodeChunk(chunk)
		if err != nil {
			t.Fatal(err)
		}
		stream = AppendFrame(stream, &Frame{Type: FrameData, Records: perFrame, Seq: uint64(frames + 1), Payload: payload})
	}
	client := h.srv.client("alloc-client")
	shardID := h.srv.shardFor(jobID)
	sh := h.srv.shards[shardID]
	br := bufio.NewReaderSize(bytes.NewReader(stream), connBufferSize)
	var buf []byte
	done, misses := 0, 0 // runs finished; decodes after the first that found the pool empty
	newChunk := chunks.New
	chunks.New = func() any {
		if done > 0 {
			misses++
		}
		return newChunk()
	}
	defer func() { chunks.New = newChunk }()
	if a := testing.AllocsPerRun(runs, func() {
		f, b, err := readFrame(br, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		if last := h.srv.processFrame(client, f, time.Now()); last != f.Seq {
			t.Fatalf("frame %d: processed through %d", f.Seq, last)
		}
		if !h.srv.route(shardID, message{}) {
			t.Fatal("the shard's queue refused the empty message")
		}
		for len(sh.q) > 0 {
			runtime.Gosched()
		}
		done++
	}); a > 1 || misses > 0 {
		t.Errorf("a data frame's read, decode, route and fold: %v allocations, want at most 1 (the Frame); %d decodes of %d found no chunk in the pool", a, misses, runs)
	}
	st := h.drainAndCheck()
	if want := uint64(frames * perFrame); st.Ledger.Received != want || st.Ledger.Summarized != want {
		t.Fatalf("want all %d records received and summarized: %+v", want, st.Ledger)
	}
}

// benchShapedChunk is one node's first eight samples of a 12-hour job,
// the chunk shape ingest-stream sends.
func benchShapedChunk(t *testing.T) *taccstats.Chunk {
	t.Helper()
	tj := genTestJobs(t, 41, 1, 1, 43200)[0]
	node := &tj.arch.Nodes[0]
	return &taccstats.Chunk{JobID: tj.arch.JobID, Host: node.Host, Samples: node.Samples[:8]}
}

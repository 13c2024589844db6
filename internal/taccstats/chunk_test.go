package taccstats

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/rng"
)

// collectOneNode produces a realistic single-node sample run.
func collectOneNode(t *testing.T) *NodeArchive {
	t.Helper()
	app := apps.Catalog()[0]
	draw := app.Sig.Draw(rng.New(11))
	draw.WallSeconds = 3000
	a := Collect(DefaultConfig(), JobInfo{ID: "777", Start: 1000, Hosts: []string{"c1"}}, draw, rng.New(12))
	return &a.Nodes[0]
}

func TestChunkRoundTrip(t *testing.T) {
	node := collectOneNode(t)
	c := &Chunk{JobID: node.JobID, Host: node.Host, Samples: node.Samples}
	b, err := EncodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	// Encode canonicalizes device order within each sample, so compare
	// at the fixed point: re-encoding the decoded chunk must reproduce
	// the payload byte for byte, and a second decode must be identity.
	b2, err := EncodeChunk(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("encode/decode/encode is not a fixed point")
	}
	again, err := DecodeChunk(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("decode of canonical form is not identity")
	}
	if got.JobID != c.JobID || got.Host != c.Host || len(got.Samples) != len(c.Samples) {
		t.Fatalf("round trip lost identity: %s/%s %d samples", got.JobID, got.Host, len(got.Samples))
	}
	for i := range c.Samples {
		if got.Samples[i].Time != c.Samples[i].Time || got.Samples[i].Marker != c.Samples[i].Marker {
			t.Fatalf("sample %d time/marker changed", i)
		}
		if len(got.Samples[i].Records) != len(c.Samples[i].Records) {
			t.Fatalf("sample %d record count changed", i)
		}
	}
	// The wire payload is exactly the one-node archive encoding, so the
	// streamed and spooled representations of a node are bit-identical.
	var buf bytes.Buffer
	a := &Archive{JobID: c.JobID, Nodes: []NodeArchive{{Host: c.Host, JobID: c.JobID, Samples: c.Samples}}}
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatal("chunk encoding diverged from the archive text format")
	}
}

func TestChunkEncodeErrors(t *testing.T) {
	node := collectOneNode(t)
	if _, err := EncodeChunk(&Chunk{Host: "c1", Samples: node.Samples}); err == nil {
		t.Fatal("chunk without job id must fail")
	}
	if _, err := EncodeChunk(&Chunk{JobID: "1", Samples: node.Samples}); err == nil {
		t.Fatal("chunk without host must fail")
	}
}

func TestChunkDecodeErrors(t *testing.T) {
	node := collectOneNode(t)
	two := &Archive{JobID: "1", Nodes: []NodeArchive{
		{Host: "c1", JobID: "1", Samples: node.Samples},
		{Host: "c2", JobID: "1", Samples: node.Samples},
	}}
	var buf bytes.Buffer
	if err := two.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChunk(buf.Bytes()); err == nil {
		t.Fatal("two-node payload must fail")
	}
	if _, err := DecodeChunk([]byte("%jobid 1\n%host c1\n")); err == nil {
		t.Fatal("sample-free payload must fail")
	}
	if _, err := DecodeChunk([]byte("not an archive")); err == nil {
		t.Fatal("garbage payload must fail")
	}
}

// benchChunk is a chunk shaped like ingest-stream's frames: the first
// eight samples of one Stampede node under a pass-suffixed job id.
func benchChunk(tb testing.TB) *Chunk {
	tb.Helper()
	draw := apps.Catalog()[0].Sig.Draw(rng.New(11))
	draw.WallSeconds = 43200
	a := Collect(DefaultConfig(), JobInfo{ID: "1000042", Start: 1_400_000_000, Hosts: []string{cluster.Stampede().Hostname(4017)}}, draw, rng.New(12))
	return &Chunk{JobID: "1000042-p003", Host: a.Nodes[0].Host, Samples: a.Nodes[0].Samples[:8]}
}

// archiveBytes is Archive.Encode of the one-node archive holding c.
func archiveBytes(tb testing.TB, c *Chunk) []byte {
	tb.Helper()
	var buf bytes.Buffer
	a := &Archive{JobID: c.JobID, Nodes: []NodeArchive{{Host: c.Host, JobID: c.JobID, Samples: c.Samples}}}
	if err := a.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// exported is c without the arrays a scan keeps for reuse: the chunk
// as its consumers see it.
func exported(c *Chunk) Chunk { return Chunk{JobID: c.JobID, Host: c.Host, Samples: c.Samples} }

// FuzzChunkScan holds both fast paths to the Archive codec. Whatever
// scanChunk accepts, the archive decoder accepts as the DeepEqual chunk
// (nil versus empty Records and Values included); a decode into a chunk
// left dirty by the bench chunk gives the fresh decode's chunk or
// error; and every chunk the archive decoder yields encodes through
// EncodeChunk to exactly Archive.Encode's bytes, and through AppendChunk
// to those bytes behind whatever the buffer held, with or without room
// for them.
func FuzzChunkScan(f *testing.F) {
	bench, err := EncodeChunk(benchChunk(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bench)
	var wide strings.Builder // 33 records in one sample: past the stack index array
	wide.WriteString("%jobid 1\n%host c1\n1000 begin\n")
	for i := 0; i < maxSortedRecords+1; i++ {
		fmt.Fprintf(&wide, "dev%02d %d\n", 40-i, i)
	}
	f.Add([]byte(wide.String()))
	for _, s := range []string{
		"%jobid 1\n%host c1\n1000 begin\ncpu 1 2\nmem 5\ncpu 3 4\n", // duplicate device
		"%jobid 1\n%host c1\n1000 begin extra\ncpu 1\n",
		"%jobid 1\r\n%host c1\r\n1000\r\ncpu 1 2\r\n",
		"%jobid 1\n%host c1\n1000\ncpu\t1 2\n",
		"%jobid 1\n%host c1\n0001000\ncpu 007 0\n", // leading zeros
		"%jobid 1\n%host c1\n1000\ncpu 18446744073709551616\n",
		"%jobid 1\n%host c1\n1000000000000000000\ncpu 1\n", // 19-digit timestamp
		"%jobid 1\n%host c1\n1000\ncpu\n",                  // no values
		"%jobid 1\n%host c1\n1000 begin\n1600\ncpu 1\n",    // a sample with no records
		"%jobid 1\n%host c1\n1000\n%foo 1\n",
		"%jobid 1\n%host c1\n1000\ncpu 1 2", // no final newline
		"%jobid 1\n%host c401\u00a0\n1000\ncpu 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeArchiveChunk(data)
		if got := new(Chunk); scanChunk(got, data) {
			if wantErr != nil {
				t.Fatalf("scanChunk accepted a payload Decode refuses (%v): %q", wantErr, data)
			}
			if !reflect.DeepEqual(exported(got), exported(want)) {
				t.Fatalf("scanChunk and Decode disagree on %q:\nscan:   %#v\ndecode: %#v", data, got, want)
			}
		}
		fresh, freshErr := DecodeChunk(data)
		dirty, err := DecodeChunk(bench)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeChunkInto(dirty, data); (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
			t.Fatalf("decode into a dirty chunk: error %v, fresh decode %v", err, freshErr)
		} else if err == nil && !reflect.DeepEqual(exported(dirty), exported(fresh)) {
			t.Fatalf("decode into a dirty chunk diverged on %q:\ndirty: %#v\nfresh: %#v", data, dirty, fresh)
		}
		if wantErr != nil {
			return
		}
		enc, err := EncodeChunk(want)
		if err != nil {
			t.Fatalf("decoded chunk failed to encode: %v", err)
		}
		ref := archiveBytes(t, want)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("EncodeChunk diverged from Archive.Encode:\nchunk:   %q\narchive: %q", enc, ref)
		}
		for _, room := range []int{0, 32 * len(ref)} {
			dst := bytes.Repeat([]byte{0xFF}, 4+room)[:4]
			app, err := AppendChunk(dst, want)
			if err != nil || string(app[:4]) != "\xff\xff\xff\xff" || !bytes.Equal(app[4:], ref) {
				t.Fatalf("AppendChunk with %d bytes of room = %q, %v; want 4 bytes of prefix, then %q", room, app, err, ref)
			}
		}
	})
}

// TestChunkDecodeDeclined: payloads outside the canonical form, some
// Decode accepts and some it refuses, are declined by scanChunk and
// answered by DecodeChunk exactly as the archive decoder answers them.
func TestChunkDecodeDeclined(t *testing.T) {
	for _, c := range []struct {
		name, payload string
		accepted      bool // by the archive decoder
	}{
		{"crlf", "%jobid 1\r\n%host c1\r\n1000 begin\r\ncpu 1 2\r\n", true},
		{"tab", "%jobid 1\n%host c1\n1000\ncpu\t1 2\n", true},
		{"double space", "%jobid 1\n%host c1\n1000\ncpu 1  2\n", true},
		{"trailing space", "%jobid 1\n%host c1\n1000 \ncpu 1 2\n", true},
		{"leading space", "%jobid 1\n%host c1\n1000\n cpu 1 2\n", true},
		{"blank line", "%jobid 1\n%host c1\n1000\n\ncpu 1 2\n", true},
		{"no final newline", "%jobid 1\n%host c1\n1000\ncpu 1 2", true},
		{"marker with extra", "%jobid 1\n%host c1\n1000 begin extra\ncpu 1\n", true},
		{"19-digit timestamp", "%jobid 1\n%host c1\n1000000000000000000\ncpu 1\n", true},
		{"directive-like device", "%jobid 1\n%host c1\n1000\n%foo 1\n", true},
		{"non-ascii host", "%jobid 1\n%host c401\u00a0\n1000\ncpu 1\n", true},
		{"value overflow", "%jobid 1\n%host c1\n1000\ncpu 18446744073709551616\n", false},
		{"value wraps past overflow", "%jobid 1\n%host c1\n1000\ncpu 99999999999999999999\n", false},
		{"line past maxLine", "%jobid 1\n%host c1\n1000\ncpu" + strings.Repeat(" 1", maxLine/2) + "\n", false},
		{"timestamp overflow", "%jobid 1\n%host c1\n99999999999999999999\ncpu 1\n", false},
		{"bad value", "%jobid 1\n%host c1\n1000\ncpu 1x\n", false},
		{"record before sample", "%jobid 1\n%host c1\ncpu 1\n", false},
		{"sample before host", "%jobid 1\n1000\n", false},
		{"two nodes", "%jobid 1\n%host c1\n1000\n%host c2\n1000\n", false},
		{"empty job id", "%jobid \n%host c1\n1000\n", false},
		{"no samples", "%jobid 1\n%host c1\n", false},
		{"garbage", "not an archive", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := []byte(c.payload)
			if scanChunk(new(Chunk), b) {
				t.Fatal("scanChunk accepted a non-canonical payload")
			}
			want, wantErr := decodeArchiveChunk(b)
			got, err := DecodeChunk(b)
			if (wantErr == nil) != c.accepted {
				t.Fatalf("archive decoder error %v, want accepted=%v", wantErr, c.accepted)
			}
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("DecodeChunk error %v, archive decoder %v", err, wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeChunk = %#v, %v; archive decoder %#v", got, err, want)
			}
		})
	}
}

// TestAllocChunkCodec pins the codec's allocations on a bench-shaped
// chunk: EncodeChunk's one buffer, none for AppendChunk into a buffer it
// grew before; DecodeChunk's chunk, job id, host, and one array each of
// samples, records and values.
func TestAllocChunkCodec(t *testing.T) {
	c := benchChunk(t)
	b, err := EncodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	if !scanChunk(new(Chunk), b) {
		t.Fatal("scanChunk declined EncodeChunk's own output")
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = EncodeChunk(c) }); a > 1 {
		t.Errorf("EncodeChunk: %v allocations, want <= 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { b, _ = AppendChunk(b[:0], c) }); a != 0 {
		t.Errorf("AppendChunk into a reused buffer: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = DecodeChunk(b) }); a > 8 {
		t.Errorf("DecodeChunk: %v allocations, want <= 8", a)
	}
}

// TestAllocChunkDecodeInto: the bench-shaped payload decodes into a
// chunk that held a larger one of the same job and host without
// allocating, and into the chunk DecodeChunk would return.
func TestAllocChunkDecodeInto(t *testing.T) {
	c := benchChunk(t)
	b, err := EncodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	larger := *c
	larger.Samples = append(append([]Sample(nil), c.Samples...), c.Samples...)
	lb, err := EncodeChunk(&larger)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := DecodeChunk(lb)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := DecodeChunkInto(dst, b); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("DecodeChunkInto a chunk that held a larger one: %v allocations, want 0", a)
	}
	fresh, err := DecodeChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exported(dst), exported(fresh)) {
		t.Fatalf("decode into a used chunk %#v, fresh %#v", dst, fresh)
	}
}

var (
	sinkBytes []byte
	sinkChunk *Chunk
)

// BenchmarkChunkCodec compares each fast path with the Archive codec it
// stands in for, per record (one sample) of a bench-shaped chunk.
func BenchmarkChunkCodec(b *testing.B) {
	c := benchChunk(b)
	payload, err := EncodeChunk(c)
	if err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.Samples)), "ns/record")
	}
	b.Run("encode/append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = EncodeChunk(c)
		}
		perRecord(b)
	})
	b.Run("encode/archive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			a := &Archive{JobID: c.JobID, Nodes: []NodeArchive{{Host: c.Host, JobID: c.JobID, Samples: c.Samples}}}
			_ = a.Encode(&buf)
			sinkBytes = buf.Bytes()
		}
		perRecord(b)
	})
	b.Run("decode/scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkChunk, _ = DecodeChunk(payload)
		}
		perRecord(b)
	})
	b.Run("decode/archive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkChunk, _ = decodeArchiveChunk(payload)
		}
		perRecord(b)
	})
}

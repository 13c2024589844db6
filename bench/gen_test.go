package main

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// testScale shrinks the seeded world so the whole package tests in a few
// seconds; every code path of a real run is still taken.
func testScale() scale {
	return scale{
		corpusJobs: 250,
		setups:     1,
		warmup:     50 * time.Millisecond,
		replay:     4,
		ingest: ingestParams{jobs: 24, maxHosts: 4, wallCap: 6000, chunk: 4,
			conns: 2, shards: 4, readerHz: 50},
	}
}

var (
	corpusOnce sync.Once
	corpusVal  *corpus
	corpusErr  error
)

// testCorpus builds the small corpus once for every test that needs it.
func testCorpus(t *testing.T) *corpus {
	t.Helper()
	corpusOnce.Do(func() { corpusVal, corpusErr = genCorpus(testScale().corpusJobs) })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusVal
}

func TestServingBodiesAreAFunctionOfTheSeed(t *testing.T) {
	c := testCorpus(t)
	for _, w := range workloads {
		if w.kind == kindIngest {
			continue
		}
		a, err := genServing(c, w, 2014)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := genServing(c, w, 2014)
		other, _ := genServing(c, w, 2015)
		if len(a.bodies) != w.bodies || len(a.bodyRows[0]) != w.rows {
			t.Fatalf("%s: %d bodies of %d rows, want %d of %d", w.name, len(a.bodies), len(a.bodyRows[0]), w.bodies, w.rows)
		}
		same, differs := true, false
		for i := range a.bodies {
			same = same && bytes.Equal(a.bodies[i], b.bodies[i])
			differs = differs || !bytes.Equal(a.bodies[i], other.bodies[i])
		}
		if !same {
			t.Errorf("%s: the same seed gave different bodies", w.name)
		}
		if !differs {
			t.Errorf("%s: a different seed gave the same bodies", w.name)
		}
	}
}

func TestIngestFramesAreAFunctionOfTheSeed(t *testing.T) {
	frames := func(seed uint64) [][]byte {
		in, err := genIngest(seed, testScale().ingest)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		var records uint64
		for _, q := range in.queues {
			for seq, u := range q {
				b, err := u.forPass(passSuffix(3)).wireBytes(uint64(seq + 1))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
				if u.chunk != nil {
					records += uint64(len(u.chunk.Samples))
				}
			}
		}
		if records != in.records || len(in.jobs) != testScale().ingest.jobs {
			t.Fatalf("generator's own counts disagree with its queues: %d records in %d frames", records, len(out))
		}
		return out
	}
	a, b, other := frames(7), frames(7), frames(8)
	if len(a) != len(b) {
		t.Fatal("the same seed gave a different frame count")
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("the same seed gave different bytes for frame %d", i)
		}
	}
	differs := len(a) != len(other)
	for i := 0; !differs && i < len(a); i++ {
		differs = !bytes.Equal(a[i], other[i])
	}
	if !differs {
		t.Error("a different seed gave the same frames")
	}
	if !bytes.Contains(a[0], []byte(passSuffix(3))) {
		t.Error("frames of pass 3 do not carry the pass suffix in their job ID")
	}
}

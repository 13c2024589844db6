package ingest

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/taccstats"
	"repro/internal/warehouse"
)

// tinyChunk is a two-sample chunk of one job on one host.
func tinyChunk(jobID string) *taccstats.Chunk {
	return &taccstats.Chunk{JobID: jobID, Host: "c1", Samples: []taccstats.Sample{
		{Time: 1000, Marker: taccstats.MarkerBegin, Records: []taccstats.Record{{Device: "cpu", Values: []uint64{1, 2, 3}}}},
		{Time: 1600, Records: []taccstats.Record{{Device: "cpu", Values: []uint64{4, 5, 6}}}},
	}}
}

// TestWindowFullSurvivesDisconnect: a peer that reads a whole window of
// frames without acking any and then hangs up must not strand the
// sender. The send that waits for window room reconnects, replays the
// window on a second connection and goes out behind it, and every frame
// is acknowledged there, well inside the deadline.
func TestWindowFullSurvivesDisconnect(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	got := make(chan []uint64, 1)
	go func() {
		defer close(got)
		ack := make([]byte, headerSize)
		// open accepts a connection, reads its hello and acks nothing
		// processed yet.
		open := func() (net.Conn, *bufio.Reader) {
			conn, err := lis.Accept()
			if err != nil {
				t.Error(err)
				return nil, nil
			}
			br := bufio.NewReader(conn)
			if _, err := ReadFrame(br, 0); err != nil {
				t.Error(err)
			} else if err := writeAck(conn, ack, 0); err != nil {
				t.Error(err)
			}
			return conn, br
		}
		conn, br := open()
		if conn == nil {
			return
		}
		for i := 0; i < clientWindow; i++ {
			if _, err := ReadFrame(br, 0); err != nil {
				t.Error(err)
				break
			}
		}
		conn.Close()
		if conn, br = open(); conn == nil {
			return
		}
		defer conn.Close()
		var seqs []uint64
		for {
			f, err := ReadFrame(br, 0)
			if err != nil {
				break
			}
			seqs = append(seqs, f.Seq)
			if err := writeAck(conn, ack, f.Seq); err != nil {
				break
			}
		}
		got <- seqs
	}()

	const deadline = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	c, err := NewClient(ClientConfig{Addr: lis.Addr().String(), ID: "window-client"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i <= clientWindow; i++ {
		if err := c.SendChunk(ctx, tinyChunk("w")); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	want := make([]uint64, clientWindow+1)
	for i := range want {
		want[i] = uint64(i + 1)
	}
	if seqs := <-got; !slices.Equal(seqs, want) {
		t.Fatalf("the second connection carried seqs %v, want 1..%d", seqs, clientWindow+1)
	}
	if st := c.Stats(); st.Reconnects != 2 || st.RecordsAcked != st.RecordsSent {
		t.Fatalf("stats %+v: want 2 connections and every record acked", st)
	}
	if elapsed > deadline/2 {
		t.Fatalf("the window took %v to drain", elapsed)
	}
}

// readCounter is a listener whose connections count their Read calls.
type readCounter struct {
	net.Listener
	reads atomic.Int64
}

func (l *readCounter) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, reads: &l.reads}, nil
}

type countedConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

// TestClientCoalescesBehindTheAck: k back-to-back sends with no Flush
// all reach the server's ledger within a second, the frames written
// while the first is unacknowledged going out when its ack lands, and
// the server reads them in fewer than k reads.
func TestClientCoalescesBehindTheAck(t *testing.T) {
	srv, err := NewServer(Config{Shards: 2, Sink: warehouse.NewSharded(warehouse.ShardedConfig{}), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &readCounter{Listener: lis}
	go srv.Serve(counted)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := NewClient(ClientConfig{Addr: lis.Addr().String(), ID: "coalesce-client"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx)
	const k = 64
	for i := 0; i < k; i++ {
		if err := c.SendChunk(ctx, tinyChunk(fmt.Sprint("coalesce-", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Stats().RecordsSent
	deadline := time.Now().Add(time.Second)
	for srv.Ledger().Snapshot().Received != want {
		if time.Now().After(deadline) {
			t.Fatalf("the server received %d of %d records within a second of the last send",
				srv.Ledger().Snapshot().Received, want)
		}
		time.Sleep(time.Millisecond)
	}
	if reads := counted.reads.Load(); reads >= k {
		t.Fatalf("%d frames took %d server reads, want fewer than %d", k, reads, k)
	} else {
		t.Logf("%d frames in %d server reads", k, reads)
	}
}

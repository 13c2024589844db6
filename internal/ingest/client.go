package ingest

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/taccstats"
)

// ClientConfig parameterizes an ingest client (one per collector
// connection).
type ClientConfig struct {
	// Addr is the ingest server's TCP address.
	Addr string
	// ID names the client for server-side resume/dedup. Must be unique
	// per logical stream and stable across reconnects.
	ID string
}

const (
	// clientWindow bounds unacknowledged frames in flight; senders block
	// when the window is full.
	clientWindow = 256
	// dialTimeout bounds one connection attempt.
	dialTimeout = 5 * time.Second
	// retryBackoff is the pause between reconnect attempts.
	retryBackoff = 20 * time.Millisecond
)

// pendingFrame is an unacknowledged frame the client must be able to
// replay after a reconnect.
type pendingFrame struct {
	seq     uint64
	buf     []byte
	records uint64
	sent    bool // written on the current connection
}

// Client streams frames to an ingest server with exactly-once delivery
// semantics: every frame is retried across reconnects until the
// server's cumulative ack covers it, and the server dedups replays by
// (client, seq). After Flush returns nil, RecordsAcked() records have
// been accepted (and accounted) by the server — the client-side anchor
// of the conservation join.
type Client struct {
	cfg ClientConfig

	mu        sync.Mutex
	conn      net.Conn
	bw        *bufio.Writer
	readerGen int
	nextSeq   uint64
	acked     uint64
	unacked   []pendingFrame
	closed    bool

	framesSent   atomic.Uint64
	recordsSent  atomic.Uint64
	recordsAcked atomic.Uint64
	reconnects   atomic.Uint64
}

// ClientStats is a point-in-time view of the client's counters.
type ClientStats struct {
	FramesSent   uint64 `json:"framesSent"`
	RecordsSent  uint64 `json:"recordsSent"`
	RecordsAcked uint64 `json:"recordsAcked"`
	Reconnects   uint64 `json:"reconnects"`
}

// NewClient returns a client; the first Send dials.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" || cfg.ID == "" {
		return nil, fmt.Errorf("ingest: client requires Addr and ID")
	}
	if len(cfg.ID) > 256 {
		return nil, fmt.Errorf("ingest: client id longer than 256 bytes")
	}
	return &Client{cfg: cfg}, nil
}

// Stats returns the counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		FramesSent:   c.framesSent.Load(),
		RecordsSent:  c.recordsSent.Load(),
		RecordsAcked: c.recordsAcked.Load(),
		Reconnects:   c.reconnects.Load(),
	}
}

// SendMeta ships a job's accounting metadata.
func (c *Client) SendMeta(ctx context.Context, m *JobMeta) error {
	payload, err := m.Encode()
	if err != nil {
		return err
	}
	return c.send(ctx, FrameMeta, 0, payload)
}

// SendChunk ships a run of one node's samples for one job.
func (c *Client) SendChunk(ctx context.Context, chunk *taccstats.Chunk) error {
	if len(chunk.Samples) == 0 {
		return fmt.Errorf("ingest: refusing to send empty chunk")
	}
	if len(chunk.Samples) > 0xFFFF {
		return fmt.Errorf("ingest: chunk of %d samples exceeds the frame record limit", len(chunk.Samples))
	}
	payload, err := taccstats.EncodeChunk(chunk)
	if err != nil {
		return err
	}
	if len(payload) > DefaultMaxPayload {
		return fmt.Errorf("ingest: encoded chunk of %d bytes exceeds max payload %d", len(payload), DefaultMaxPayload)
	}
	return c.send(ctx, FrameData, uint16(len(chunk.Samples)), payload)
}

// send enqueues one frame and pumps the connection until the frame is
// at least written (acks drain asynchronously; Flush waits for them).
func (c *Client) send(ctx context.Context, ftype byte, records uint16, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("ingest: client closed")
	}
	// Window backpressure: wait for acks before growing the replay
	// buffer further.
	for len(c.unacked) >= clientWindow {
		if err := c.pumpLocked(ctx); err != nil {
			return err
		}
	}
	c.nextSeq++
	f := Frame{Type: ftype, Records: records, Seq: c.nextSeq, Payload: payload}
	c.unacked = append(c.unacked, pendingFrame{seq: f.Seq, buf: AppendFrame(nil, &f), records: uint64(records)})
	c.recordsSent.Add(uint64(records))
	return c.writeUnsentLocked(ctx)
}

// Flush blocks until every sent frame is acknowledged (retrying across
// reconnects) or ctx expires.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.unacked) > 0 {
		if err := c.writeUnsentLocked(ctx); err != nil {
			return err
		}
		if err := c.pumpLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and tears the connection down.
func (c *Client) Close(ctx context.Context) error {
	err := c.Flush(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.teardownLocked()
	return err
}

// pumpLocked waits a beat for the reader goroutine to drain acks,
// releasing the lock so it can make progress.
func (c *Client) pumpLocked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	c.mu.Lock()
	return ctx.Err()
}

// writeUnsentLocked connects if needed and writes every frame not yet
// written on the current connection. A write failure tears the
// connection down and retries (after backoff) until ctx expires.
func (c *Client) writeUnsentLocked(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.conn == nil {
			if err := c.connectLocked(ctx); err != nil {
				return err
			}
		}
		ok := true
		for i := range c.unacked {
			p := &c.unacked[i]
			if p.sent {
				continue
			}
			if _, err := c.bw.Write(p.buf); err != nil {
				ok = false
				break
			}
			p.sent = true
			c.framesSent.Add(1)
		}
		if ok {
			if err := c.bw.Flush(); err != nil {
				ok = false
			}
		}
		if ok {
			return nil
		}
		c.teardownLocked()
		c.backoffLocked(ctx)
	}
}

// connectLocked dials, handshakes, resynchronizes the replay buffer
// from the server's resume ack, and starts the ack reader. Retries
// until ctx expires.
func (c *Client) connectLocked(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
		if err != nil {
			c.backoffLocked(ctx)
			continue
		}
		bw := bufio.NewWriter(conn)
		if err := WriteFrame(bw, &Frame{Type: FrameHello, Payload: []byte(c.cfg.ID)}); err == nil {
			err = bw.Flush()
		} else {
			_ = bw.Flush()
		}
		br := bufio.NewReader(conn)
		ack, err := ReadFrame(br, DefaultMaxPayload)
		if err != nil || ack.Type != FrameAck {
			conn.Close()
			c.backoffLocked(ctx)
			continue
		}
		c.reconnects.Add(1)
		c.conn, c.bw = conn, bw
		c.ackLocked(ack.Seq)
		// Everything surviving the prune must be replayed on this
		// connection.
		for i := range c.unacked {
			c.unacked[i].sent = false
		}
		c.readerGen++
		go c.readAcks(conn, br, c.readerGen)
		return nil
	}
}

// readAcks consumes cumulative acks until the connection dies; it
// owns no frames, only the acked watermark.
func (c *Client) readAcks(conn net.Conn, br *bufio.Reader, gen int) {
	for {
		f, err := ReadFrame(br, DefaultMaxPayload)
		c.mu.Lock()
		if c.readerGen != gen {
			c.mu.Unlock()
			return
		}
		if err != nil || f.Type != FrameAck {
			if c.conn == conn {
				c.teardownLocked()
			}
			c.mu.Unlock()
			return
		}
		c.ackLocked(f.Seq)
		c.mu.Unlock()
	}
}

// ackLocked advances the watermark and prunes the replay buffer.
func (c *Client) ackLocked(seq uint64) {
	if seq <= c.acked && c.acked != 0 {
		return
	}
	if seq > c.acked {
		c.acked = seq
	}
	keep := c.unacked[:0]
	for _, p := range c.unacked {
		if p.seq <= c.acked {
			c.recordsAcked.Add(p.records)
		} else {
			keep = append(keep, p)
		}
	}
	c.unacked = keep
}

// teardownLocked closes the connection; the replay buffer survives.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.bw = nil, nil
	}
	c.readerGen++ // orphan any reader still blocked in ReadFrame
}

// backoffLocked sleeps the retry pause without holding the lock.
func (c *Client) backoffLocked(ctx context.Context) {
	c.mu.Unlock()
	select {
	case <-time.After(retryBackoff):
	case <-ctx.Done():
	}
	c.mu.Lock()
}

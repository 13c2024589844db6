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
	// maxReusedFrame bounds the frame buffers an ack returns for reuse,
	// so one outsized chunk does not pin its buffer for the client's life.
	maxReusedFrame = 64 << 10
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
//
// Its writes ride the ack clock (Nagle's rule, with no timer): while a
// frame flushed on the connection awaits its ack, later frames collect
// in the connection's write buffer, and that ack's arrival flushes them
// in one write. The server acks every frame it has processed before any
// read that could block, so that ack always comes.
type Client struct {
	cfg ClientConfig

	mu        sync.Mutex
	changed   sync.Cond // on mu; ackLocked and teardownLocked broadcast it
	conn      net.Conn
	bw        *bufio.Writer
	flushed   uint64 // newest seq when bw was last flushed on this connection
	readerGen int
	nextSeq   uint64
	acked     uint64
	unacked   []pendingFrame
	free      [][]byte // acknowledged frames' buffers, for reuse
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
	c := &Client{cfg: cfg}
	c.changed.L = &c.mu
	return c, nil
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
	return c.send(ctx, FrameMeta, 0, append(c.frameBuffer(), payload...))
}

// SendChunk ships a run of one node's samples for one job, encoded
// straight into a frame buffer.
func (c *Client) SendChunk(ctx context.Context, chunk *taccstats.Chunk) error {
	if len(chunk.Samples) == 0 {
		return fmt.Errorf("ingest: refusing to send empty chunk")
	}
	if len(chunk.Samples) > 0xFFFF {
		return fmt.Errorf("ingest: chunk of %d samples exceeds the frame record limit", len(chunk.Samples))
	}
	frame, err := taccstats.AppendChunk(c.frameBuffer(), chunk)
	if err != nil {
		return err
	}
	if n := len(frame) - headerSize; n > DefaultMaxPayload {
		return fmt.Errorf("ingest: encoded chunk of %d bytes exceeds max payload %d", n, DefaultMaxPayload)
	}
	return c.send(ctx, FrameData, uint16(len(chunk.Samples)), frame)
}

// frameBuffer returns a buffer holding a frame header's worth of room,
// for the payload to be appended behind: an acknowledged frame's buffer
// when one is free.
func (c *Client) frameBuffer() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.free)
	if n == 0 {
		return make([]byte, headerSize)
	}
	buf := c.free[n-1]
	c.free = c.free[:n-1]
	return buf[:headerSize]
}

// send seals frame, a header's room and its payload, as the next
// sequence number, enqueues it and writes it into the connection's
// buffer. It flushes the buffer only when no frame flushed on this
// connection awaits its ack; otherwise the ack flushes it (readAcks).
// A full window flushes and waits for acks, reconnecting as Flush does.
func (c *Client) send(ctx context.Context, ftype byte, records uint16, frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("ingest: client closed")
	}
	// Window backpressure: wait for acks before growing the replay
	// buffer further.
	if err := c.drainLocked(ctx, clientWindow-1); err != nil {
		return err
	}
	c.nextSeq++
	sealFrame(frame, ftype, records, c.nextSeq)
	c.unacked = append(c.unacked, pendingFrame{seq: c.nextSeq, buf: frame, records: uint64(records)})
	c.recordsSent.Add(uint64(records))
	return c.writeUnsentLocked(ctx, true)
}

// Flush blocks until every sent frame is acknowledged (retrying across
// reconnects) or ctx expires.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainLocked(ctx, 0)
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

// drainLocked writes every unsent frame, reconnecting when it must, and
// waits until at most max frames are unacknowledged or ctx expires. An
// ack wakes it to look again; a teardown, to reconnect and replay.
func (c *Client) drainLocked(ctx context.Context, max int) error {
	for len(c.unacked) > max {
		if err := c.writeUnsentLocked(ctx, false); err != nil {
			return err
		}
		if len(c.unacked) <= max {
			return nil
		}
		if err := c.waitLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// waitLocked releases the lock until the next ack or teardown, or until
// ctx ends.
func (c *Client) waitLocked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.changed.Broadcast()
		c.mu.Unlock()
	})
	c.changed.Wait()
	stop()
	return ctx.Err()
}

// writeUnsentLocked connects if needed and writes every frame not yet
// written on the current connection into its buffer, then flushes the
// buffer, unless hold is set and a frame flushed earlier on this
// connection is still unacknowledged. A write failure tears the
// connection down and retries (after backoff) until ctx expires.
func (c *Client) writeUnsentLocked(ctx context.Context, hold bool) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.conn == nil {
			if err := c.connectLocked(ctx); err != nil {
				return err
			}
		}
		// Frames go out in order, so the unsent ones are a suffix.
		i := len(c.unacked)
		for i > 0 && !c.unacked[i-1].sent {
			i--
		}
		ok := true
		for ; i < len(c.unacked); i++ {
			p := &c.unacked[i]
			if _, err := c.bw.Write(p.buf); err != nil {
				ok = false
				break
			}
			p.sent = true
			c.framesSent.Add(1)
		}
		if ok && (!hold || c.flushed <= c.acked) {
			ok = c.flushLocked() == nil
		}
		if ok {
			return nil
		}
		c.teardownLocked()
		c.backoffLocked(ctx)
	}
}

// flushLocked writes out the connection's buffer, which holds every
// frame sent so far.
func (c *Client) flushLocked() error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.flushed = c.nextSeq
	return nil
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
		bw := bufio.NewWriterSize(conn, connBufferSize)
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
// owns no frames, only the acked watermark. After each ack it flushes
// the frames still in the write buffer.
func (c *Client) readAcks(conn net.Conn, br *bufio.Reader, gen int) {
	var buf []byte
	for {
		f, b, err := readFrame(br, DefaultMaxPayload, buf)
		buf = b
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
		if c.bw.Buffered() > 0 && c.flushLocked() != nil {
			c.teardownLocked()
		}
		c.mu.Unlock()
	}
}

// ackLocked advances the watermark, prunes the replay buffer and frees
// the acknowledged frames' buffers for reuse.
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
			if cap(p.buf) <= maxReusedFrame {
				c.free = append(c.free, p.buf)
			}
		} else {
			keep = append(keep, p)
		}
	}
	clear(c.unacked[len(keep):]) // the freed buffers belong to c.free now
	c.unacked = keep
	c.changed.Broadcast()
}

// teardownLocked closes the connection; the replay buffer survives.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.bw = nil, nil
		c.flushed = 0
	}
	c.readerGen++ // orphan any reader still blocked in ReadFrame
	c.changed.Broadcast()
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

package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/taccstats"
)

// Config parameterizes the ingest server.
type Config struct {
	// Shards is the number of job-hash partitions (default 4). A job's
	// records are owned by exactly one shard for their whole life.
	Shards int
	// QueueDepth bounds each shard's message queue (default 1024);
	// routing to a full queue holds the read loop up to routeWait for
	// room, then sheds the frame's records as dropped{queue_full}, as
	// it does at once while that shard is stalled.
	QueueDepth int
	// IdleTimeout finalizes a job whose stream has gone quiet without a
	// complete epilog (0 disables; drains still flush everything).
	IdleTimeout time.Duration
	// Sink receives finalized job records (required).
	Sink Sink

	Obs    *obs.Registry
	Log    *obs.Logger
	Faults *resilience.Faults
	// Flight, when armed, records one wide event per finalized job.
	Flight *flight.Recorder
}

// clientState tracks one client's highest processed sequence number, so
// frames retried after a connection drop are applied at most once.
type clientState struct {
	mu   sync.Mutex
	last uint64
}

// Server is the streaming ingest daemon core: TCP accept loop, framed
// protocol with cumulative acks and resume, job-hash sharding, and the
// conservation ledger.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	ledger *Ledger
	shards []*shard
	depths []*obs.Gauge

	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]bool
	connWG  sync.WaitGroup
	clients map[string]*clientState

	pending     atomic.Int64 // records accepted but not yet settled
	openJobs    *obs.Gauge
	connsActive *obs.Gauge
	closed      atomic.Bool
	drained     atomic.Bool

	// Each ingest_frames_total outcome's series, resolved once.
	framesOK, framesDuplicate, framesDecodeError, framesMetaShed *obs.Counter
}

// NewServer builds a server (shard goroutines start immediately; wire
// traffic starts when Serve is called).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("ingest: config requires a Sink")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Obs,
		ledger:  NewLedger(cfg.Shards, cfg.Obs),
		conns:   map[net.Conn]bool{},
		clients: map[string]*clientState{},
	}
	s.reg.Help("ingest_frames_total", "Wire frames handled, by outcome (ok, duplicate, decode_error, meta_shed).")
	s.reg.Help("ingest_jobs_finalized_total", "Jobs finalized, by outcome and trigger.")
	s.reg.Help("ingest_shard_depth", "Queued messages per ingest shard.")
	s.reg.Help("ingest_open_jobs", "Jobs currently open across all shards.")
	s.reg.Help("ingest_connections_active", "Live ingest TCP connections.")
	s.openJobs = s.reg.Gauge("ingest_open_jobs")
	s.connsActive = s.reg.Gauge("ingest_connections_active")
	frames := func(outcome string) *obs.Counter {
		return s.reg.Counter("ingest_frames_total", "outcome", outcome)
	}
	s.framesOK, s.framesDuplicate = frames("ok"), frames("duplicate")
	s.framesDecodeError, s.framesMetaShed = frames("decode_error"), frames("meta_shed")
	s.depths = make([]*obs.Gauge, cfg.Shards)
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.depths[i] = s.reg.Gauge("ingest_shard_depth", "shard", strconv.Itoa(i))
		s.shards[i] = newShard(i, s, cfg.QueueDepth)
		go s.shards[i].run()
	}
	return s, nil
}

func (s *Server) depthGauge(i int) *obs.Gauge { return s.depths[i] }

// Ledger exposes the conservation ledger (tests and /debug/ingest).
func (s *Server) Ledger() *Ledger { return s.ledger }

// Pending reports records accepted but not yet summarized or dropped.
func (s *Server) Pending() int64 { return s.pending.Load() }

// shardFor routes a job id to its owning shard.
func (s *Server) shardFor(jobID string) int {
	return int(fnv64a([]byte(jobID)) % uint64(len(s.shards)))
}

// fnv64a hashes b (FNV-1a, the repo's standard digest). It routes jobs
// to shards; frames carry a CRC-32C instead.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Serve accepts connections on lis until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// connBufferSize is the server's read buffer per connection. A
// streaming client's frames arrive many to a read of it, and they share
// one ack.
const connBufferSize = 64 << 10

// handleConn speaks the framed protocol on one connection: hello, then
// data/meta frames, each covered by a cumulative ack. The ack waits
// while the read buffer already holds the whole next frame, so a burst
// of frames costs one ack; and it goes out before any read that could
// block, so a client never waits on the ack of a frame the server has
// processed. Every payload is read into one buffer per connection.
func (s *Server) handleConn(conn net.Conn) {
	s.connsActive.Inc()
	defer s.connsActive.Dec()
	defer conn.Close()
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Log.Error("ingest.conn.panic", "remote", conn.RemoteAddr().String(), "panic", fmt.Sprint(p))
		}
	}()
	br := bufio.NewReaderSize(conn, connBufferSize)
	ack := make([]byte, headerSize)

	client, buf := s.hello(br, nil)
	if client == nil {
		s.cfg.Log.Warn("ingest.conn.bad_hello", "remote", conn.RemoteAddr().String())
		return
	}
	client.mu.Lock()
	last := client.last
	client.mu.Unlock()
	if err := writeAck(conn, ack, last); err != nil {
		return
	}

	unacked := false // a frame was processed since the last ack
	for {
		if unacked && !frameBuffered(br) {
			if err := writeAck(conn, ack, last); err != nil {
				return
			}
			unacked = false
		}
		// The clock starts once the next frame's first byte is here, so a
		// data frame's decode time never holds the wait for its client.
		_, err := br.Peek(1)
		start := time.Now()
		var f *Frame
		if err == nil {
			f, buf, err = readFrame(br, DefaultMaxPayload, buf)
		}
		if err != nil {
			if err != io.EOF {
				s.cfg.Log.Debug("ingest.conn.read", "err", err.Error())
			}
			return
		}
		// Chaos site: error severs the connection before the frame is
		// accounted (the client resumes from its last ack, so nothing is
		// lost or double counted); latency stalls the stream; panic is
		// isolated by the deferred recover above.
		if err := s.cfg.Faults.Inject(SiteConn); err != nil {
			s.cfg.Log.Debug("ingest.conn.injected", "err", err.Error())
			return
		}
		last, unacked = s.processFrame(client, f, start), true
	}
}

// hello reads a connection's opening frame into buf and returns the
// client it names, or nil when the peer opened with anything else.
func (s *Server) hello(r io.Reader, buf []byte) (*clientState, []byte) {
	f, buf, err := readFrame(r, DefaultMaxPayload, buf)
	if err != nil || f.Type != FrameHello || len(f.Payload) == 0 || len(f.Payload) > 256 {
		return nil, buf
	}
	return s.client(string(f.Payload)), buf
}

// frameBuffered reports whether br already holds the whole next frame,
// so that reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < headerSize {
		return false
	}
	hdr, _ := br.Peek(headerSize)
	return n-headerSize >= int(binary.BigEndian.Uint32(hdr[8:12]))
}

// writeAck seals the cumulative ack for a client's last processed seq
// into ack, one header long, and writes it.
func writeAck(conn net.Conn, ack []byte, seq uint64) error {
	sealFrame(ack, FrameAck, 0, seq)
	_, err := conn.Write(ack)
	return err
}

// client returns (creating) the per-client dedup state.
func (s *Server) client(id string) *clientState {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[id]
	if !ok {
		c = &clientState{}
		s.clients[id] = c
	}
	return c
}

// chunks recycles decoded chunks. A data frame decodes into one, and
// whoever reads it last returns it: the shard once it has folded it,
// processFrame when the frame is refused or shed.
var chunks = sync.Pool{New: func() any { return new(taccstats.Chunk) }}

// processFrame accounts and routes one data or meta frame, exactly
// once per (client, seq): replays of an already-processed sequence are
// acked but not re-applied. start is when the frame's read began; a
// routed chunk carries the time from there to its decode's end. It
// returns the client's last processed seq, the ack that covers f.
func (s *Server) processFrame(client *clientState, f *Frame, start time.Time) uint64 {
	client.mu.Lock()
	defer client.mu.Unlock()
	if f.Seq <= client.last {
		s.framesDuplicate.Inc()
		return client.last
	}

	switch f.Type {
	case FrameMeta:
		meta, err := ParseJobMeta(f.Payload)
		if err != nil {
			s.framesDecodeError.Inc()
		} else if !s.route(s.shardFor(meta.JobID), message{meta: meta, enqueued: time.Now()}) {
			// A shed meta frame costs no records; the job finalizes via
			// the idle sweep instead of its epilog.
			s.framesMetaShed.Inc()
		} else {
			s.framesOK.Inc()
		}
	case FrameData:
		n := uint64(f.Records)
		chunk := chunks.Get().(*taccstats.Chunk)
		if err := taccstats.DecodeChunkInto(chunk, f.Payload); err != nil || uint64(len(chunk.Samples)) != n {
			// The header's claimed count is the ledger truth for a frame
			// whose payload cannot be trusted: received and dropped in
			// the router slot, conserved either way.
			chunks.Put(chunk)
			s.framesDecodeError.Inc()
			s.ledger.Received(routerShard, n)
			s.ledger.Dropped(routerShard, ReasonDecode, n)
			break
		}
		shardID := s.shardFor(chunk.JobID)
		s.ledger.Received(shardID, n)
		now := time.Now()
		if s.route(shardID, message{chunk: chunk, decode: now.Sub(start), enqueued: now}) {
			s.framesOK.Inc()
			s.pending.Add(int64(n))
		} else {
			chunks.Put(chunk)
			s.framesOK.Inc()
			s.ledger.Dropped(shardID, ReasonQueueFull, n)
		}
	default:
		// Hello mid-stream or a stray ack: protocol noise, not records.
		s.framesDecodeError.Inc()
	}
	client.last = f.Seq
	return f.Seq
}

// routeWait bounds how long routing waits for room in a full shard
// queue. A burst that outruns its shard is held back instead: the
// connection reads no further, so its client's acks and then its writes
// wait. A shard whose queue stays full this long is stalled: routes to
// it shed whenever its queue is full, without waiting, until one finds
// the queue empty, so a stalled shard holds each connection once, not
// once a frame, and the other shards' frames keep flowing.
const routeWait = 100 * time.Millisecond

// route enqueues a message on a shard, waiting up to routeWait while
// its queue is full unless the shard is stalled; false means the
// message was shed.
func (s *Server) route(shardID int, msg message) bool {
	sh := s.shards[shardID]
	if len(sh.q) == 0 && sh.stalled.Load() {
		sh.stalled.Store(false)
	}
	select {
	case sh.q <- msg:
	default:
		if sh.stalled.Load() {
			return false
		}
		t := time.NewTimer(routeWait)
		defer t.Stop()
		select {
		case sh.q <- msg:
		case <-t.C:
			sh.stalled.Store(true)
			return false
		}
	}
	s.depths[shardID].Set(float64(len(sh.q)))
	return true
}

// Drain stops the wire (closing the listener) and flushes every shard:
// queued messages are applied and every open job finalizes. After
// Drain, Pending() is zero and the ledger balances exactly.
func (s *Server) Drain() {
	if !s.drained.CompareAndSwap(false, true) {
		return
	}
	s.closed.Store(true)
	s.mu.Lock()
	lis := s.lis
	for conn := range s.conns {
		conn.Close() // sever: the handler's next read fails
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	// Wait for every connection handler to return before flushing, so
	// no route can land behind a shard's drain barrier.
	s.connWG.Wait()
	for _, sh := range s.shards {
		done := make(chan struct{})
		sh.q <- message{drain: done}
		<-done
	}
}

// Draining reports whether Drain has begun: the wire is closed for good,
// so a readiness probe should fail from here on.
func (s *Server) Draining() bool { return s.drained.Load() }

// Close drains and shuts down (idempotent).
func (s *Server) Close() { s.Drain() }

// Status is the server's point-in-time self-report, served by
// /debug/ingest and consumed by the reconciliation harness.
type Status struct {
	Ledger      Snapshot  `json:"ledger"`
	Pending     int64     `json:"pending"`
	OpenJobs    float64   `json:"openJobs"`
	Connections float64   `json:"connections"`
	ShardDepths []float64 `json:"shardDepths"`
	Shards      int       `json:"shards"`
}

// Status snapshots the ledger and gauges.
func (s *Server) Status() Status {
	st := Status{
		Ledger:      s.ledger.Snapshot(),
		Pending:     s.pending.Load(),
		OpenJobs:    s.openJobs.Value(),
		Connections: s.connsActive.Value(),
		Shards:      len(s.shards),
	}
	for i := range s.shards {
		st.ShardDepths = append(st.ShardDepths, float64(len(s.shards[i].q)))
	}
	return st
}

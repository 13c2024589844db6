package ingest

import (
	"bufio"
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
	// routing to a full queue sheds the frame's records as
	// dropped{queue_full} rather than blocking the read loop.
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
	frames      func(outcome string) *obs.Counter
	closed      atomic.Bool
	drained     atomic.Bool
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
	s.frames = func(outcome string) *obs.Counter {
		return s.reg.Counter("ingest_frames_total", "outcome", outcome)
	}
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

// handleConn speaks the framed protocol on one connection: hello,
// then data/meta frames each answered with a cumulative ack.
func (s *Server) handleConn(conn net.Conn) {
	s.connsActive.Inc()
	defer s.connsActive.Dec()
	defer conn.Close()
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Log.Error("ingest.conn.panic", "remote", conn.RemoteAddr().String(), "panic", fmt.Sprint(p))
		}
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	hello, err := ReadFrame(br, DefaultMaxPayload)
	if err != nil || hello.Type != FrameHello || len(hello.Payload) == 0 || len(hello.Payload) > 256 {
		s.cfg.Log.Warn("ingest.conn.bad_hello", "remote", conn.RemoteAddr().String())
		return
	}
	client := s.client(string(hello.Payload))
	client.mu.Lock()
	last := client.last
	client.mu.Unlock()
	if err := s.writeAck(bw, last); err != nil {
		return
	}

	for {
		f, err := ReadFrame(br, DefaultMaxPayload)
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
		s.processFrame(client, f)
		client.mu.Lock()
		last = client.last
		client.mu.Unlock()
		if err := s.writeAck(bw, last); err != nil {
			return
		}
	}
}

// writeAck sends the cumulative ack for a client's last processed seq.
func (s *Server) writeAck(bw *bufio.Writer, seq uint64) error {
	if err := WriteFrame(bw, &Frame{Type: FrameAck, Seq: seq}); err != nil {
		return err
	}
	return bw.Flush()
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

// processFrame accounts and routes one data or meta frame, exactly
// once per (client, seq): replays of an already-processed sequence are
// acked but not re-applied.
func (s *Server) processFrame(client *clientState, f *Frame) {
	client.mu.Lock()
	defer client.mu.Unlock()
	if f.Seq <= client.last {
		s.frames("duplicate").Inc()
		return
	}

	switch f.Type {
	case FrameMeta:
		meta, err := ParseJobMeta(f.Payload)
		if err != nil {
			s.frames("decode_error").Inc()
		} else if !s.route(s.shardFor(meta.JobID), message{meta: meta}) {
			// A shed meta frame costs no records; the job finalizes via
			// the idle sweep instead of its epilog.
			s.frames("meta_shed").Inc()
		} else {
			s.frames("ok").Inc()
		}
	case FrameData:
		n := uint64(f.Records)
		chunk, err := taccstats.DecodeChunk(f.Payload)
		if err != nil || uint64(len(chunk.Samples)) != n {
			// The header's claimed count is the ledger truth for a frame
			// whose payload cannot be trusted: received and dropped in
			// the router slot, conserved either way.
			s.frames("decode_error").Inc()
			s.ledger.Received(routerShard, n)
			s.ledger.Dropped(routerShard, ReasonDecode, n)
			break
		}
		shardID := s.shardFor(chunk.JobID)
		s.ledger.Received(shardID, n)
		if s.route(shardID, message{chunk: chunk}) {
			s.frames("ok").Inc()
			s.pending.Add(int64(n))
		} else {
			s.frames("ok").Inc()
			s.ledger.Dropped(shardID, ReasonQueueFull, n)
		}
	default:
		// Hello mid-stream or a stray ack: protocol noise, not records.
		s.frames("decode_error").Inc()
	}
	client.last = f.Seq
}

// route enqueues a message on a shard without ever blocking the read
// loop; false means the queue was full.
func (s *Server) route(shardID int, msg message) bool {
	sh := s.shards[shardID]
	select {
	case sh.q <- msg:
		s.depths[shardID].Set(float64(len(sh.q)))
		return true
	default:
		return false
	}
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

package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/stats"
	"repro/internal/summarize"
	"repro/internal/taccstats"
	"repro/internal/testkit"
	"repro/internal/warehouse"
)

// ingestStack is one booted instance of supremm-ingestd's core: the
// sharded ingest.Server behind a TCP listener feeding a sharded
// warehouse, plus the long-lived client connections that stream to it.
type ingestStack struct {
	in      *ingestInputs
	p       ingestParams
	reg     *obs.Registry
	wh      *warehouse.Sharded
	srv     *ingest.Server
	served  chan error
	clients []*ingest.Client
	passes  int // passes streamed so far; the next pass's number
}

func bootIngest(in *ingestInputs, p ingestParams) (*ingestStack, error) {
	st := &ingestStack{in: in, p: p, reg: obs.NewRegistry()}
	st.wh = warehouse.NewSharded(warehouse.ShardedConfig{Shards: p.shards})
	srv, err := ingest.NewServer(ingest.Config{
		Shards: p.shards, IdleTimeout: 30 * time.Second, Sink: st.wh, Obs: st.reg,
		Flight: flight.NewRecorder(flight.DefaultConfig()),
	})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- srv.Serve(ln) }()
	for ci := 0; ci < p.conns; ci++ {
		c, err := ingest.NewClient(ingest.ClientConfig{Addr: ln.Addr().String(), ID: fmt.Sprintf("bench-%d", ci)})
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close flushes the clients, drains the server and waits for its accept
// loop. The first error wins.
func (st *ingestStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	for _, c := range st.clients {
		if err := c.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	st.srv.Close()
	if err := <-st.served; err != nil && first == nil {
		first = err
	}
	return first
}

// pass streams the whole job set once, every job ID suffixed with the
// pass number, and returns when every frame is acknowledged and the
// server has settled every record: first send -> Flush returns and
// Pending() == 0.
func (st *ingestStack) pass(ctx context.Context) (time.Duration, error) {
	suffix := passSuffix(st.passes)
	st.passes++
	errs := make([]error, len(st.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range st.clients {
		wg.Add(1)
		go func(ci int, c *ingest.Client) {
			defer wg.Done()
			for _, u := range st.in.queues[ci] {
				u = u.forPass(suffix)
				var err error
				if u.meta != nil {
					err = c.SendMeta(ctx, u.meta)
				} else {
					err = c.SendChunk(ctx, u.chunk)
				}
				if err != nil {
					errs[ci] = err
					return
				}
			}
			errs[ci] = c.Flush(ctx)
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	for st.srv.Pending() != 0 {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("server never settled: %d records pending: %w", st.srv.Pending(), err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start), nil
}

// checkLedger is the per-pass oracle: the conservation ledger balances
// with nothing pending, nothing was dropped, every generated record was
// acknowledged, and the warehouse holds every job sent so far.
func (st *ingestStack) checkLedger() error {
	snap := st.srv.Ledger().Snapshot()
	if err := snap.Check(0); err != nil {
		return err
	}
	want := st.in.records * uint64(st.passes)
	var acked uint64
	for _, c := range st.clients {
		acked += c.Stats().RecordsAcked
	}
	switch {
	case snap.DroppedSum != 0:
		return fmt.Errorf("%d records dropped (%v)", snap.DroppedSum, snap.Dropped)
	case snap.Summarized != want || acked != want:
		return fmt.Errorf("generated %d records, acked %d, summarized %d", want, acked, snap.Summarized)
	case st.wh.Len() != len(st.in.jobs)*st.passes:
		return fmt.Errorf("warehouse holds %d jobs after %d passes of %d", st.wh.Len(), st.passes, len(st.in.jobs))
	}
	return nil
}

// reference builds the serial warehouse the run must equal: the
// generator's own summarize.Summarize result for every job of every
// pass, ingested in job-ID order (the order a snapshot presents them in,
// so float accumulation order matches).
func (st *ingestStack) reference() (*warehouse.Store, error) {
	recs := make([]*warehouse.Record, 0, len(st.in.jobs)*st.passes)
	for pass := 0; pass < st.passes; pass++ {
		suffix := passSuffix(pass)
		for i := range st.in.jobs {
			r := st.in.jobs[i].ref
			r.JobID += suffix
			recs = append(recs, &r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].JobID < recs[j].JobID })
	store := warehouse.NewStore()
	for _, r := range recs {
		if err := store.Ingest(r); err != nil {
			return nil, err
		}
	}
	return store, nil
}

var allDimensions = []warehouse.Dimension{
	warehouse.ByApplication, warehouse.ByCategory, warehouse.ByUser,
	warehouse.ByPopulation, warehouse.ByJobSize, warehouse.ByMonth,
}

// aggregateDigest folds totals and every group-by dimension into one
// string: group keys verbatim, every float bit-exactly.
func aggregateDigest(totals warehouse.Aggregate, groupBy func(warehouse.Dimension) []*warehouse.Aggregate) string {
	var keys strings.Builder
	floats := [][]float64{aggregateFloats(&totals)}
	for _, dim := range allDimensions {
		for _, a := range groupBy(dim) {
			fmt.Fprintf(&keys, "%s=%s;", dim, a.Key)
			floats = append(floats, aggregateFloats(a))
		}
	}
	return testkit.HashBytes([]byte(keys.String())) + "/" + testkit.HashFloats(floats...)
}

func aggregateFloats(a *warehouse.Aggregate) []float64 {
	return []float64{float64(a.Jobs), a.CPUHours, a.WallHours, a.AvgWaitHrs, a.AvgNodes,
		a.MixPercent, a.AvgCPUUser, a.MinWaitHours(), a.MaxWaitHours()}
}

// checkWarehouse is the end-of-run oracle: the sharded warehouse's
// snapshot must aggregate exactly as the serial reference store does.
func checkWarehouse(snap *warehouse.WarehouseSnapshot, ref *warehouse.Store) error {
	got := aggregateDigest(snap.Totals(), snap.GroupBy)
	want := aggregateDigest(ref.Totals(), ref.GroupBy)
	if got != want || snap.Len() != ref.Len() {
		return fmt.Errorf("warehouse aggregates %s over %d jobs, serial reference %s over %d",
			got, snap.Len(), want, ref.Len())
	}
	return nil
}

// verifiedPass streams one pass and runs the per-pass and warehouse
// oracles on it.
func (st *ingestStack) verifiedPass(ctx context.Context) error {
	if _, err := st.pass(ctx); err != nil {
		return err
	}
	if err := st.checkLedger(); err != nil {
		return err
	}
	ref, err := st.reference()
	if err != nil {
		return err
	}
	return checkWarehouse(st.wh.Snapshot(), ref)
}

// runIngest runs ingest-stream. Set-up is boot plus a first verified
// pass (pass 0, the warm-up); then passes repeat on the same server for
// the window while a reader queries the growing warehouse at a fixed
// rate: writes beside reads.
func runIngest(res *result, w *workload, seed uint64, seconds int, sc scale, rec *recorder) error {
	in, err := genIngest(seed, sc.ingest)
	if err != nil {
		return err
	}
	// One pass takes about a second; a context this long only ends a run
	// that has hung.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+2*time.Minute)
	defer cancel()

	peakRSS := rssWatch()

	var st *ingestStack
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if st, err = bootIngest(in, sc.ingest); err != nil {
			return err
		}
		err := st.verifiedPass(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += int64(in.records)
		if err != nil {
			res.problem("set-up %d: %v", i, err)
			res.Failed += int64(in.records)
		}
	}
	defer st.close()

	// The reader and (traced runs only) the shard-depth poller run for
	// the whole window.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var queryMS []float64
	badQueries := 0
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(time.Second / time.Duration(sc.ingest.readerHz))
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t0 := time.Now()
				snap := st.wh.Snapshot()
				groups := snap.GroupBy(warehouse.ByApplication)
				queryMS = append(queryMS, float64(time.Since(t0))/1e6)
				jobs := 0
				for _, g := range groups {
					jobs += g.Jobs
				}
				if jobs != snap.Len() {
					badQueries++
				}
			}
		}
	}()
	depthMax := 0.0
	if rec != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, d := range st.srv.Status().ShardDepths {
						depthMax = math.Max(depthMax, d)
					}
				}
			}
		}()
	}

	var rates, cpuPerRecord []float64
	for start := time.Now(); time.Since(start) < time.Duration(seconds)*time.Second; {
		sp := rec.begin("ingest.pass", passSuffix(st.passes), 0, int(in.records))
		cpu0 := cpuTime()
		d, err := st.pass(ctx)
		cpu := cpuTime() - cpu0
		rec.end(sp)
		res.Attempted += int64(in.records)
		if err == nil {
			err = st.checkLedger()
		}
		if err != nil {
			res.problem("pass %d: %v", st.passes-1, err)
			res.Failed += int64(in.records)
			break
		}
		rates = append(rates, float64(in.records)/d.Seconds())
		cpuPerRecord = append(cpuPerRecord, float64(cpu)/1e3/float64(in.records))
	}
	close(stop)
	bg.Wait()
	if badQueries > 0 {
		res.problem("%d of %d queries grouped a different job count than their snapshot held", badQueries, len(queryMS))
	}

	ref, err := st.reference()
	if err != nil {
		return err
	}
	if err := checkWarehouse(st.wh.Snapshot(), ref); err != nil {
		res.problem("%v", err)
	}

	rss := peakRSS()
	if rec != nil {
		st.layerCounts(res, depthMax)
		res.set("warehouse.query_tail_ms", percentile(queryMS, w.tail), len(queryMS))
		return replayIngest(res, st, rec)
	}
	res.set("setup_s", stats.Median(setups), len(setups))
	res.set("items_per_s", stats.Median(rates), len(rates))
	res.set("lat_p50_ms", stats.Median(queryMS), len(queryMS))
	res.set("cpu_us_per_item", stats.Median(cpuPerRecord), len(cpuPerRecord))
	res.set("peak_rss_mb", rss, 0)
	return nil
}

// layerCounts reports the ingest path's own books after the untraced
// window: frames and records by disposition, and how evenly the job
// hash spread records over the shards.
func (st *ingestStack) layerCounts(res *result, depthMax float64) {
	snap := st.srv.Ledger().Snapshot()
	res.set("ingest.frames", sumSeries(st.reg, "ingest_frames_total"), 0)
	res.set("ingest.duplicates", sumSeries(st.reg, `ingest_frames_total{outcome="duplicate"}`), 0)
	res.set("ingest.records_received", float64(snap.Received), 0)
	res.set("ingest.records_summarized", float64(snap.Summarized), 0)
	res.set("ingest.records_dropped", float64(snap.DroppedSum), 0)
	var reconnects uint64
	for _, c := range st.clients {
		reconnects += c.Stats().Reconnects
	}
	res.set("ingest.reconnects", float64(reconnects), 0)
	res.set("ingest.shard_depth_max", depthMax, 0)
	var maxRecv, sumRecv float64
	shards := 0
	for _, ss := range snap.PerShard {
		if ss.Shard < 0 {
			continue // the router slot holds only undecodable frames
		}
		maxRecv = math.Max(maxRecv, float64(ss.Received))
		sumRecv += float64(ss.Received)
		shards++
	}
	if sumRecv > 0 {
		res.set("ingest.shard_skew", maxRecv/(sumRecv/float64(shards)), shards)
	}
	res.set("warehouse.jobs", float64(st.wh.Len()), 0)
}

// replayIngest produces the ingest path's per-layer timings by taking
// one pass's frames through each module's public functions, serially:
// chunk encode -> frame encode -> frame decode (checksum included) ->
// chunk decode per frame, then summarize and warehouse ingest per job,
// then the reader's snapshot and group-by on the warehouse as the window
// left it.
func replayIngest(res *result, st *ingestStack, rec *recorder) error {
	col := taccstats.DefaultConfig()
	var wire, recs float64
	root := rec.begin("ingest.replay", "replay", 0, int(st.in.records))
	for _, q := range st.in.queues {
		for seq, u := range q {
			if u.chunk == nil {
				continue
			}
			id, n := u.chunk.JobID, len(u.chunk.Samples)
			sp := rec.begin("taccstats.chunk_encode", id, root, n)
			payload, err := taccstats.EncodeChunk(u.chunk)
			rec.end(sp)
			if err != nil {
				return err
			}
			f := &ingest.Frame{Type: ingest.FrameData, Records: uint16(n), Seq: uint64(seq + 1), Payload: payload}
			sp = rec.begin("ingest.frame_encode", id, root, n)
			buf := ingest.AppendFrame(nil, f)
			rec.end(sp)
			sp = rec.begin("ingest.frame_decode", id, root, n)
			got, err := ingest.ReadFrame(bytes.NewReader(buf), 0)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin("taccstats.chunk_decode", id, root, n)
			chunk, err := taccstats.DecodeChunk(got.Payload)
			rec.end(sp)
			if err != nil || len(chunk.Samples) != n {
				return fmt.Errorf("replayed chunk of job %s did not survive the wire: %v", id, err)
			}
			wire += float64(len(buf))
			recs += float64(n)
		}
	}
	sharded, serial := warehouse.NewSharded(warehouse.ShardedConfig{Shards: st.p.shards}), warehouse.NewStore()
	var perJob []float64
	for i := range st.in.jobs {
		j := &st.in.jobs[i]
		n := 0
		for _, node := range j.arch.Nodes {
			n += len(node.Samples)
		}
		perJob = append(perJob, float64(n))
		sp := rec.begin("summarize.summarize", j.arch.JobID, root, 1)
		sum, err := summarize.Summarize(j.arch, col, summarize.Options{SkipBadNodes: true})
		rec.end(sp)
		if err != nil {
			return err
		}
		r := j.ref
		r.Summary = sum
		sp = rec.begin("warehouse.sharded_ingest", j.arch.JobID, root, 1)
		err = sharded.Ingest(&r)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("warehouse.store_ingest", j.arch.JobID, root, 1)
		err = serial.Ingest(&r)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	rec.end(root)
	for i := 0; i < 21; i++ {
		sp := rec.begin("warehouse.snapshot", "query", 0, 1)
		snap := st.wh.Snapshot()
		rec.end(sp)
		sp = rec.begin("warehouse.groupby", "query", 0, 1)
		snap.GroupBy(warehouse.ByApplication)
		rec.end(sp)
	}

	set := func(metric, spanName string, perItem bool, div float64) {
		xs := rec.byName(spanName, perItem)
		res.set(metric, stats.Median(xs)/div, len(xs))
	}
	set("taccstats.chunk_encode_ns_per_record", "taccstats.chunk_encode", true, 1)
	set("taccstats.chunk_decode_ns_per_record", "taccstats.chunk_decode", true, 1)
	set("ingest.frame_encode_ns", "ingest.frame_encode", false, 1)
	set("ingest.frame_decode_ns", "ingest.frame_decode", false, 1)
	res.set("ingest.wire_bytes_per_record", wire/math.Max(recs, 1), 0)
	set("summarize.summarize_us_per_job", "summarize.summarize", false, 1e3)
	res.set("summarize.records_per_job", stats.Median(perJob), len(perJob))
	set("warehouse.sharded_ingest_ns_per_job", "warehouse.sharded_ingest", false, 1)
	set("warehouse.store_ingest_ns_per_job", "warehouse.store_ingest", false, 1)
	set("warehouse.snapshot_ms", "warehouse.snapshot", false, 1e6)
	set("warehouse.groupby_ms", "warehouse.groupby", false, 1e6)
	return nil
}

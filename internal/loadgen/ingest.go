package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/kvspec"
	"repro/internal/lariat"
	"repro/internal/rng"
	"repro/internal/taccstats"
)

// IngestConfig parameterizes one ingest firehose run: a seeded
// simulated cluster workload (the same generator the batch pipeline
// uses) with its collection timeline compressed into Duration and
// replayed over Conns connections. As with Config, the canonical wire
// form is the spec string, recorded verbatim in the report.
type IngestConfig struct {
	// BaseURL is the HTTP root of the supremm-serve whose ingest wire
	// Addr is, e.g. http://127.0.0.1:8080; ReconcileIngest reads its
	// ledger and /metrics there.
	BaseURL string
	// Addr is the ingest daemon's TCP address.
	Addr string
	// Jobs is how many cluster jobs to generate and stream.
	Jobs int
	// Conns is the number of client connections (simulated collector
	// hosts); a (job, host) stream always stays on one connection so
	// per-host sample order is preserved.
	Conns int
	// MaxHosts caps nodes per job (keeps record counts tractable).
	MaxHosts int
	// WallCap caps each job's wall seconds before collection.
	WallCap float64
	// Duration is the replay window the send schedule is compressed
	// into (open-loop pacing; sends behind schedule go immediately).
	Duration time.Duration
	// Seed drives workload generation and connection assignment; one
	// seed reproduces the exact frame sequence.
	Seed uint64
}

// Defaults for ingest spec keys the caller omits.
const (
	defIngestJobs     = 32
	defIngestConns    = 4
	defIngestMaxHosts = 4
	defIngestWallCap  = 4000
	defIngestDur      = 2 * time.Second
)

// ingestChunk is samples per data frame; one value serves every run, so
// it is not a spec key.
const ingestChunk = 4

// Validate checks the config for use by RunIngest.
func (c IngestConfig) Validate() error {
	switch {
	case !serverRoot(c.BaseURL):
		return fmt.Errorf("loadgen: url %q is not an http(s):// server root", c.BaseURL)
	case c.Addr == "":
		return fmt.Errorf("loadgen: addr is required")
	case c.Jobs <= 0 || c.Jobs > 100000:
		return fmt.Errorf("loadgen: jobs %d outside [1,100000]", c.Jobs)
	case c.Conns <= 0 || c.Conns > 256:
		return fmt.Errorf("loadgen: conns %d outside [1,256]", c.Conns)
	case c.MaxHosts <= 0 || c.MaxHosts > 64:
		return fmt.Errorf("loadgen: hosts %d outside [1,64]", c.MaxHosts)
	case math.IsNaN(c.WallCap) || c.WallCap <= 0:
		return fmt.Errorf("loadgen: wall must be positive, got %v", c.WallCap)
	case c.Duration <= 0:
		return fmt.Errorf("loadgen: dur must be positive, got %v", c.Duration)
	}
	return nil
}

// table is the config's spec grammar; ParseIngestSpec and IngestSpec
// both derive from it.
func (c *IngestConfig) table() kvspec.Table {
	return kvspec.Table{Prefix: "loadgen", Noun: "ingest spec", Fields: []kvspec.Field{
		{Key: "url", Ptr: &c.BaseURL},
		{Key: "addr", Ptr: &c.Addr},
		{Key: "jobs", Ptr: &c.Jobs},
		{Key: "conns", Ptr: &c.Conns},
		{Key: "hosts", Ptr: &c.MaxHosts},
		{Key: "wall", Ptr: &c.WallCap},
		{Key: "dur", Ptr: &c.Duration},
		{Key: "seed", Ptr: &c.Seed},
	}}
}

// ParseIngestSpec parses an ingest load spec: comma- or
// whitespace-separated k=v pairs, e.g.
//
//	url=http://127.0.0.1:8080,addr=127.0.0.1:9301,jobs=64,conns=8,dur=10s,seed=7
//
// Keys: url, addr, jobs, conns, hosts, wall, dur, seed. url and addr
// are required; the rest default sanely. url names the same server
// root as in ParseSpec: ingest only runs behind a supremm-serve that
// also serves HTTP.
func ParseIngestSpec(s string) (IngestConfig, error) {
	cfg := IngestConfig{
		Jobs:     defIngestJobs,
		Conns:    defIngestConns,
		MaxHosts: defIngestMaxHosts,
		WallCap:  defIngestWallCap,
		Duration: defIngestDur,
	}
	seen, err := cfg.table().Parse(s)
	if err != nil {
		return IngestConfig{}, err
	}
	if len(seen) == 0 {
		return IngestConfig{}, fmt.Errorf("loadgen: empty ingest spec")
	}
	if err := cfg.Validate(); err != nil {
		return IngestConfig{}, err
	}
	return cfg, nil
}

// IngestSpec renders the config canonically;
// ParseIngestSpec(c.IngestSpec()) returns an identical config.
func (c IngestConfig) IngestSpec() string { return c.table().Render() }

// IngestReport is the firehose run's record of truth: exactly how many
// records were generated and how many the server acknowledged. Because
// the client retries until acked and the server dedups by sequence,
// RecordsAcked is an exact count of records the server accepted — the
// client side of the conservation join.
type IngestReport struct {
	Spec             string  `json:"spec"`
	Jobs             int     `json:"jobs"`
	Frames           uint64  `json:"frames"`
	RecordsGenerated uint64  `json:"recordsGenerated"`
	RecordsAcked     uint64  `json:"recordsAcked"`
	Reconnects       uint64  `json:"reconnects"`
	DurationSeconds  float64 `json:"durationSeconds"`
	RecordsPerSec    float64 `json:"recordsPerSec"`

	PerClient []ingest.ClientStats `json:"perClient"`

	// Reconcile is filled by ReconcileIngest when requested.
	Reconcile *IngestCheck `json:"reconcile,omitempty"`
}

// sendUnit is one scheduled frame: a meta or a chunk.
type sendUnit struct {
	meta  *ingest.JobMeta
	chunk *taccstats.Chunk
	due   time.Duration
}

// fnvStr hashes a string (FNV-1a) for connection assignment.
func fnvStr(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// RunIngest generates the seeded workload, compresses its collection
// timeline into cfg.Duration, and replays it over cfg.Conns retrying
// connections. It returns once every frame is acknowledged.
func RunIngest(ctx context.Context, cfg IngestConfig) (*IngestReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Generate the workload exactly like the batch pipeline would.
	gen := cluster.NewGenerator(cluster.Stampede(), cluster.DefaultConfig(cfg.Seed))
	matcher := lariat.NewMatcher(apps.Catalog())
	col := taccstats.DefaultConfig()
	r := rng.NewStream(cfg.Seed, 0x16E57)
	queues := make([][]sendUnit, cfg.Conns)
	var generated uint64
	for i, j := range gen.Generate(cfg.Jobs) {
		if len(j.Hosts) > cfg.MaxHosts {
			j.Hosts = j.Hosts[:cfg.MaxHosts]
		}
		if j.Draw.WallSeconds > cfg.WallCap {
			j.Draw.WallSeconds = cfg.WallCap
		}
		arch := taccstats.Collect(col, taccstats.JobInfo{ID: j.ID, Start: j.Start, Hosts: j.Hosts},
			j.Draw, r.Split(uint64(i)))
		// The prolog knows what Lariat captured, never the generator's
		// ground truth: a custom code streams as Uncategorized or NA.
		label, category := matcher.LabelJob(j)
		meta := &ingest.JobMeta{
			JobID:    j.ID,
			User:     j.User,
			AppLabel: label,
			Category: category,
			Pop:      j.Population.String(),
			Nodes:    len(j.Hosts),
			Cores:    len(j.Hosts) * col.CoresPerNode,
			Submit:   j.Submit,
			Start:    j.Start,
			ExitCode: j.ExitCode,
		}
		queues[fnvStr(j.ID)%uint64(cfg.Conns)] = append(queues[fnvStr(j.ID)%uint64(cfg.Conns)],
			sendUnit{meta: meta})
		for ni := range arch.Nodes {
			node := &arch.Nodes[ni]
			ci := fnvStr(j.ID+"/"+node.Host) % uint64(cfg.Conns)
			for off := 0; off < len(node.Samples); off += ingestChunk {
				end := off + ingestChunk
				if end > len(node.Samples) {
					end = len(node.Samples)
				}
				queues[ci] = append(queues[ci], sendUnit{chunk: &taccstats.Chunk{
					JobID: j.ID, Host: node.Host, Samples: node.Samples[off:end],
				}})
				generated += uint64(end - off)
			}
		}
	}
	// Open-loop schedule: spread each connection's units evenly across
	// the replay window.
	for ci := range queues {
		n := len(queues[ci])
		for ui := range queues[ci] {
			queues[ci][ui].due = time.Duration(float64(cfg.Duration) * float64(ui) / float64(n))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	stats := make([]ingest.ClientStats, cfg.Conns)
	for ci := range queues {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("loadgen: conn %d: %w", ci, err)
				}
				mu.Unlock()
			}
			c, err := ingest.NewClient(ingest.ClientConfig{
				Addr: cfg.Addr,
				ID:   fmt.Sprintf("ingestload-%d-%d", cfg.Seed, ci),
			})
			if err != nil {
				fail(err)
				return
			}
			for _, u := range queues[ci] {
				if wait := u.due - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						fail(ctx.Err())
						return
					}
				}
				if u.meta != nil {
					err = c.SendMeta(ctx, u.meta)
				} else {
					err = c.SendChunk(ctx, u.chunk)
				}
				if err != nil {
					fail(err)
					return
				}
			}
			if err := c.Close(ctx); err != nil {
				fail(err)
				return
			}
			mu.Lock()
			stats[ci] = c.Stats()
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	rep := &IngestReport{
		Spec:             cfg.IngestSpec(),
		Jobs:             cfg.Jobs,
		RecordsGenerated: generated,
		DurationSeconds:  time.Since(start).Seconds(),
		PerClient:        stats,
	}
	for _, st := range stats {
		rep.Frames += st.FramesSent
		rep.RecordsAcked += st.RecordsAcked
		rep.Reconnects += st.Reconnects
	}
	if rep.DurationSeconds > 0 {
		rep.RecordsPerSec = float64(rep.RecordsAcked) / rep.DurationSeconds
	}
	if rep.RecordsAcked != rep.RecordsGenerated {
		return rep, fmt.Errorf("loadgen: generated %d records but only %d acked",
			rep.RecordsGenerated, rep.RecordsAcked)
	}
	return rep, nil
}

// IngestCheck is the exact reconciliation of a firehose run against the
// daemon's self-reports: the client's acked count, the /debug/ingest
// ledger, and the /metrics counters must all agree to the record.
type IngestCheck struct {
	Pending  int64   `json:"pending"`
	OpenJobs float64 `json:"openJobs"`

	Ledger ingest.Snapshot `json:"ledger"`

	MetricsReceived   uint64 `json:"metricsReceived"`
	MetricsSummarized uint64 `json:"metricsSummarized"`
	MetricsDropped    uint64 `json:"metricsDropped"`

	ClientAcked uint64 `json:"clientAcked"`

	// Mismatches is empty iff every join is exact.
	Mismatches []string `json:"mismatches"`
}

// ReconcileIngest polls base+/debug/ingest until the daemon is
// quiescent (no pending records, no open jobs), then joins the ledger,
// the /metrics counters, and the client-side acked count exactly, and
// fills rep.Reconcile.
func ReconcileIngest(ctx context.Context, base string, rep *IngestReport) (*IngestCheck, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	var st ingest.Status
	for {
		if _, err := getJSON(ctx, client, base+"/debug/ingest", &st); err != nil {
			return nil, err
		}
		if st.Pending == 0 && st.OpenJobs == 0 {
			break
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, fmt.Errorf("loadgen: daemon never quiesced: pending=%d openJobs=%v: %w",
				st.Pending, st.OpenJobs, ctx.Err())
		}
	}
	var metrics string
	if _, err := get(ctx, client, base+"/metrics", func(r io.Reader) error {
		b, err := io.ReadAll(r)
		metrics = string(b)
		return err
	}); err != nil {
		return nil, err
	}

	chk := &IngestCheck{
		Pending:     st.Pending,
		OpenJobs:    st.OpenJobs,
		Ledger:      st.Ledger,
		ClientAcked: rep.RecordsAcked,
		Mismatches:  []string{},
	}
	chk.MetricsReceived = promSum(metrics, "ingest_records_total", `outcome="received"`)
	chk.MetricsSummarized = promSum(metrics, "ingest_records_total", `outcome="summarized"`)
	chk.MetricsDropped = promSum(metrics, "ingest_records_total", `outcome="dropped"`)

	mismatch := func(format string, args ...any) {
		chk.Mismatches = append(chk.Mismatches, fmt.Sprintf(format, args...))
	}
	if err := st.Ledger.Check(0); err != nil {
		mismatch("%v", err)
	}
	if chk.ClientAcked != st.Ledger.Received {
		mismatch("client acked %d records, ledger received %d", chk.ClientAcked, st.Ledger.Received)
	}
	if chk.MetricsReceived != st.Ledger.Received {
		mismatch("/metrics received %d, ledger %d", chk.MetricsReceived, st.Ledger.Received)
	}
	if chk.MetricsSummarized != st.Ledger.Summarized {
		mismatch("/metrics summarized %d, ledger %d", chk.MetricsSummarized, st.Ledger.Summarized)
	}
	if chk.MetricsDropped != st.Ledger.DroppedSum {
		mismatch("/metrics dropped %d, ledger %d", chk.MetricsDropped, st.Ledger.DroppedSum)
	}
	rep.Reconcile = chk
	return chk, nil
}

// get is the one GET helper: request, status check, then read hands the
// 200 body to the caller's decoder. The HTTP status comes back alongside
// the error (0 when the target was never reached), so a caller can treat
// one specific refusal -- 503 from a subsystem that is not armed -- as an
// answer rather than a failure.
func get(ctx context.Context, client *http.Client, url string, read func(io.Reader) error) (status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("loadgen: cannot reach %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("loadgen: GET %s answered %d", url, resp.StatusCode)
	}
	if err := read(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("loadgen: decoding %s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// getJSON fetches a JSON endpoint into out.
func getJSON(ctx context.Context, client *http.Client, url string, out any) (status int, err error) {
	return get(ctx, client, url, func(r io.Reader) error { return json.NewDecoder(r).Decode(out) })
}

// promSum sums every sample of a counter family whose label block
// contains the given label pair (Prometheus text exposition).
func promSum(text, family, labelPair string) uint64 {
	var sum uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, "{") {
			continue
		}
		end := strings.Index(rest, "}")
		if end < 0 {
			continue
		}
		if !strings.Contains(rest[1:end], labelPair) {
			continue
		}
		val := strings.TrimSpace(rest[end+1:])
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		sum += uint64(n)
	}
	return sum
}

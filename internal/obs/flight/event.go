// Package flight is the serving path's always-on flight recorder: every
// request produces one wide event (identity, route, status, outcome,
// stage timings, batch size, model annotations, fault hits) that lands
// in a fixed-size in-process ring with tail sampling -- errors,
// timeouts, sheds and panics are always kept, the rolling latency top-K
// is always kept, and healthy traffic is counter-sampled. On top of the
// ring sit a multi-window SLO burn-rate engine and self-capturing
// diagnostic bundles (ring snapshot + runtime profile + metrics dump)
// triggered by SLO burn or operator request.
//
// Like the rest of internal/obs the package is dependency-free and
// nil-safe: methods on a nil *Recorder or nil *Active are no-ops, so the
// serving path can be instrumented unconditionally and pays one nil
// check when the recorder is not armed. Sampling decisions are made with
// counters, never randomness, so arming the recorder cannot perturb any
// deterministic RNG stream.
package flight

import (
	"context"
	"encoding/json"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// Outcome classifies how a request was disposed of; derived from the
// final status code plus the annotations handlers left on the event.
const (
	OutcomeOK          = "ok"
	OutcomeShed        = "shed"        // 429 from admission control
	OutcomeTimeout     = "timeout"     // 504, stage says queue or handler
	OutcomeUnavailable = "unavailable" // 503 (no model, breaker open)
	OutcomeBadRequest  = "bad_request" // other 4xx
	OutcomePanic       = "panic"       // handler panicked (isolated)
	OutcomeError       = "error"       // other 5xx
)

// Event is one wide per-request record: everything the serving path
// learned about a request, flattened into a single row so a p99 spike or
// shed storm can be attributed to specific requests after the fact.
type Event struct {
	Seq    uint64    `json:"seq"`    // recorder insertion order
	ID     string    `json:"id"`     // X-Request-Id
	Time   time.Time `json:"time"`   // request start
	Method string    `json:"method"` //
	Path   string    `json:"path"`   // bounded route label
	Status int       `json:"status"` //
	// Outcome is the coarse disposition (see the Outcome* constants).
	Outcome string `json:"outcome"`

	DurationNS int64 `json:"durationNS"` // total wall time
	QueueNS    int64 `json:"queueNS"`    // admission-queue wait
	HandlerNS  int64 `json:"handlerNS"`  // DurationNS minus QueueNS
	RowNS      int64 `json:"rowNS"`      // summed per-row inference time
	Rows       int64 `json:"rows"`       // classified rows (1 for single)
	// Stages splits the handler's own time across the row pipeline's
	// stages, or an ingest finalize's across decode, summarize and
	// warehouse; what HandlerNS holds beyond their sum is the middleware,
	// the model-view capture and whatever a refusal cut short.
	Stages Stages `json:"stages"`

	ModelGeneration uint64 `json:"modelGeneration,omitempty"`
	Compiled        bool   `json:"compiled,omitempty"`
	Algo            string `json:"algo,omitempty"`

	// ShadowRows counts this request's rows the lifecycle loop
	// shadow-scored on the challenger; ShadowAgree how many of those
	// agreed with the served champion answer. Reconciled exactly
	// against the lifecycle ledger by the soak harness.
	ShadowRows  int64 `json:"shadowRows,omitempty"`
	ShadowAgree int64 `json:"shadowAgree,omitempty"`

	TimeoutStage string `json:"timeoutStage,omitempty"` // queue | handler
	Panicked     bool   `json:"panicked,omitempty"`
	Err          string `json:"err,omitempty"`
	FaultHits    int64  `json:"faultHits,omitempty"` // fault-site injections observed

	// KeepReason records why tail sampling kept this event:
	// error | slow | sampled.
	KeepReason string `json:"keepReason,omitempty"`
}

// isError reports whether tail sampling must never sample this event
// out: every non-2xx disposition and every panic is evidence.
func (e *Event) isError() bool {
	return e.Panicked || e.Status >= 400
}

// The stages a served row request passes through, in order, then those
// of an ingest finalize; each indexes Stages.
const (
	StageRead      = iota // read the capped request body
	StageDecode           // scan it, or decode, validate and resolve feature names (ingest: read and decode the job's frames)
	StageScore            // the model calls: one row, or a batch fan-out's wall time
	StageEncode           // build and write the reply
	StageSummarize        // combine an ingested job's per-host folds (summarize.Nodes)
	StageWarehouse        // build the job's record and fold it into the warehouse (Sink.Ingest)
	NumStages
)

// stageNames are the JSON keys of Stages, indexed like it.
var stageNames = [NumStages]string{"read", "decode", "score", "encode", "summarize", "warehouse"}

// Stages is one request's handler time per stage in nanoseconds,
// indexed by the Stage constants: a fixed array, so stamping a stage
// allocates nothing. It encodes as an object keyed by stage name.
type Stages [NumStages]int64

// MarshalJSON writes {"read":ns,"decode":ns,...,"warehouse":ns}.
func (s Stages) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, ns := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, stageNames[i])
		b = append(b, ':')
		b = strconv.AppendInt(b, ns, 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads what MarshalJSON writes; unknown keys are ignored.
func (s *Stages) UnmarshalJSON(b []byte) error {
	var byName map[string]int64
	if err := json.Unmarshal(b, &byName); err != nil {
		return err
	}
	for i, name := range stageNames {
		s[i] = byName[name]
	}
	return nil
}

// Active is the under-construction event for an in-flight request. The
// middleware owns the plain Event fields (one goroutine); row-level
// contributions arrive concurrently from the batch fan-out, so they
// accumulate through atomics. All methods are nil-safe.
type Active struct {
	Event

	// RowTimer sums per-row inference time across the pool goroutines a
	// batch fans out over (see parallel.Timer).
	RowTimer parallel.Timer

	faults      atomic.Int64
	queueNS     atomic.Int64
	shadowRows  atomic.Int64
	shadowAgree atomic.Int64
}

// NewActive starts the wide event for one request.
func NewActive(id, method, path string, start time.Time) *Active {
	return &Active{Event: Event{ID: id, Method: method, Path: path, Time: start}}
}

// Timer exposes the event's row timer for fan-out plumbing
// (parallel.ForEachCtxTimed takes a *parallel.Timer, which is itself
// nil-safe, so a nil *Active degrades to an untimed fan-out).
func (a *Active) Timer() *parallel.Timer {
	if a == nil {
		return nil
	}
	return &a.RowTimer
}

// Lap adds the time since start to stage and returns now, so a handler
// stamps consecutive stages with one clock read per boundary. Stages
// are stamped by the handler goroutine alone (a batch fan-out counts as
// one score stage, timed around the join), so no atomics are needed.
// On a nil event it only reads the clock.
func (a *Active) Lap(stage int, start time.Time) time.Time {
	now := time.Now()
	if a != nil {
		a.Stages[stage] += int64(now.Sub(start))
	}
	return now
}

// SetModel annotates the event with the serving model's identity.
func (a *Active) SetModel(generation uint64, compiled bool, algo string) {
	if a == nil {
		return
	}
	a.ModelGeneration, a.Compiled, a.Algo = generation, compiled, algo
}

// SetQueueWait records how long the request sat in the admission queue.
func (a *Active) SetQueueWait(d time.Duration) {
	if a != nil {
		a.queueNS.Store(int64(d))
	}
}

// SetTimeoutStage marks which stage (queue or handler) the deadline
// expired in.
func (a *Active) SetTimeoutStage(stage string) {
	if a != nil {
		a.TimeoutStage = stage
	}
}

// SetErr attaches a terminal error message to the event.
func (a *Active) SetErr(msg string) {
	if a != nil {
		a.Err = msg
	}
}

// MarkFault counts one fault-site injection observed during the request.
// Safe for concurrent use (batch rows hit fault sites in parallel).
func (a *Active) MarkFault() {
	if a != nil {
		a.faults.Add(1)
	}
}

// AddShadow counts one shadow-scored row on the event (agree says
// whether the challenger matched the served answer). Safe for
// concurrent use: batch rows shadow-score from the pool fan-out.
func (a *Active) AddShadow(agree bool) {
	if a == nil {
		return
	}
	a.shadowRows.Add(1)
	if agree {
		a.shadowAgree.Add(1)
	}
}

// MarkPanic flags the event as a recovered handler panic.
func (a *Active) MarkPanic() {
	if a != nil {
		a.Panicked = true
	}
}

// Finalize freezes the event once the response is committed: status,
// timings, and the derived outcome. Called exactly once, by the
// middleware, after the handler (and any fan-out) has fully returned.
func (a *Active) Finalize(status int, total time.Duration) {
	if a == nil {
		return
	}
	a.Status = status
	a.DurationNS = int64(total)
	a.QueueNS = a.queueNS.Load()
	a.HandlerNS = a.DurationNS - a.QueueNS
	a.RowNS = int64(a.RowTimer.Total())
	a.Rows = a.RowTimer.Count()
	a.FaultHits = a.faults.Load()
	a.ShadowRows = a.shadowRows.Load()
	a.ShadowAgree = a.shadowAgree.Load()
	a.Outcome = deriveOutcome(status, a.Panicked)
}

// deriveOutcome maps the committed status (plus the panic flag) onto the
// coarse disposition taxonomy.
func deriveOutcome(status int, panicked bool) string {
	switch {
	case panicked:
		return OutcomePanic
	case status == 429:
		return OutcomeShed
	case status == 504:
		return OutcomeTimeout
	case status == 503:
		return OutcomeUnavailable
	case status >= 500:
		return OutcomeError
	case status >= 400:
		return OutcomeBadRequest
	default:
		return OutcomeOK
	}
}

// ctxKey keys the in-flight event in a request context.
type ctxKey struct{}

// With returns ctx carrying the in-flight event, so layers below the
// middleware (admission control, row fan-out, fault sites) can annotate
// it without new plumbing through every signature.
func With(ctx context.Context, a *Active) context.Context {
	return context.WithValue(ctx, ctxKey{}, a)
}

// From extracts the in-flight event, or nil when the recorder is not
// armed (every *Active method is nil-safe, so callers never check).
func From(ctx context.Context) *Active {
	a, _ := ctx.Value(ctxKey{}).(*Active)
	return a
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one node of a hierarchical trace: a named stage with wall-clock
// and process-CPU timings, ordered attributes, and child spans. Spans are
// safe for concurrent child creation (parallel stages attach children in
// completion order). A nil *Span is a no-op: Child returns nil, End and
// SetAttr do nothing — so instrumented code paths need no nil checks.
type Span struct {
	name     string
	start    time.Time
	cpuStart time.Duration

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	wall     time.Duration
	cpu      time.Duration
	ended    bool
}

// Attr is one key=value span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now(), cpuStart: processCPU()}
}

// Child starts a sub-span. Children may end after their parent; their
// timings are measured independently.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddTimed attaches an already-measured child span, for stages whose
// duration is accumulated externally (e.g. worker-summed busy time inside
// a fused parallel loop). The child is created ended, with the given wall
// duration and no CPU reading.
func (s *Span) AddTimed(name string, wall time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, wall: wall, ended: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span. Values are rendered with %v.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	s.mu.Unlock()
}

// End freezes the span's wall and CPU durations. End is idempotent; the
// first call wins. The CPU reading is the process-wide CPU time consumed
// while the span was open, so concurrently open spans each report the
// total (document per-stage CPU only for serial stages).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wall = time.Since(s.start)
	s.cpu = processCPU() - s.cpuStart
}

// TraceNode is the JSON form of a span tree.
type TraceNode struct {
	Name     string       `json:"name"`
	WallMS   float64      `json:"wall_ms"`
	CPUMS    float64      `json:"cpu_ms,omitempty"`
	Attrs    []Attr       `json:"attrs,omitempty"`
	Children []*TraceNode `json:"children,omitempty"`
}

// Tree snapshots the span (and its descendants) into a TraceNode. Open
// spans report their elapsed time so far.
func (s *Span) Tree() *TraceNode {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	wall, cpu := s.wall, s.cpu
	if !s.ended {
		wall = time.Since(s.start)
		cpu = processCPU() - s.cpuStart
	}
	n := &TraceNode{
		Name:   s.name,
		WallMS: float64(wall.Microseconds()) / 1000,
		CPUMS:  float64(cpu.Microseconds()) / 1000,
		Attrs:  append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.Tree())
	}
	return n
}

// WriteJSON writes the span tree as indented JSON.
func (s *Span) WriteJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Tree())
}

// Summary renders the span tree as an indented text report with each
// stage's wall time and share of its parent.
func (s *Span) Summary() string {
	t := s.Tree()
	if t == nil {
		return ""
	}
	var b strings.Builder
	writeSummary(&b, t, 0, t.WallMS)
	return b.String()
}

func writeSummary(b *strings.Builder, t *TraceNode, depth int, parentMS float64) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%-*s %10.1fms", 36-2*depth, t.Name, t.WallMS)
	if depth > 0 && parentMS > 0 {
		fmt.Fprintf(b, " %5.1f%%", 100*t.WallMS/parentMS)
	}
	if t.CPUMS > 0 {
		fmt.Fprintf(b, "  cpu=%.1fms", t.CPUMS)
	}
	for _, a := range t.Attrs {
		fmt.Fprintf(b, "  %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, c := range t.Children {
		writeSummary(b, c, depth+1, t.WallMS)
	}
}

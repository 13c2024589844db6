package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewSpan("pipeline")
	gen := root.Child("generate")
	gen.SetAttr("jobs", 100)
	gen.End()
	col := root.Child("collect")
	col.AddTimed("summarize", 250*time.Millisecond)
	col.End()
	root.End()

	tree := root.Tree()
	if tree.Name != "pipeline" || len(tree.Children) != 2 {
		t.Fatalf("tree = %+v", tree)
	}
	if tree.Children[0].Name != "generate" || tree.Children[1].Name != "collect" {
		t.Fatalf("children out of creation order: %+v", tree.Children)
	}
	if got := tree.Children[0].Attrs; len(got) != 1 || got[0].Key != "jobs" || got[0].Value != "100" {
		t.Errorf("attrs = %+v", got)
	}
	agg := tree.Children[1].Children[0]
	if agg.Name != "summarize" || agg.WallMS != 250 {
		t.Errorf("AddTimed child = %+v", agg)
	}
	if tree.WallMS < 0 {
		t.Errorf("root wall = %v", tree.WallMS)
	}
}

func TestSpanEndIdempotentAndWall(t *testing.T) {
	s := NewSpan("x")
	time.Sleep(2 * time.Millisecond)
	s.End()
	w := s.Tree().WallMS
	if w < 2 {
		t.Errorf("wall = %vms, want >= 2ms", w)
	}
	time.Sleep(2 * time.Millisecond)
	s.End() // second End must not extend the span
	if got := s.Tree().WallMS; got != w {
		t.Errorf("wall changed after second End: %vms vs %vms", got, w)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("suite")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("exp")
			c.SetAttr("k", "v")
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if n := len(root.Tree().Children); n != 32 {
		t.Fatalf("children = %d, want 32", n)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span Child must return nil")
	}
	c.SetAttr("a", 1)
	c.End()
	if s.Tree() != nil {
		t.Error("nil span accessors must be zero")
	}
	if s.AddTimed("y", time.Second) != nil {
		t.Error("nil AddTimed must return nil")
	}
	if err := s.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if s.Summary() != "" {
		t.Error("nil summary must be empty")
	}
}

func TestSpanJSONRoundtrip(t *testing.T) {
	root := NewSpan("r")
	root.Child("a").End()
	root.End()
	var buf bytes.Buffer
	if err := root.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tree TraceNode
	if err := json.Unmarshal(buf.Bytes(), &tree); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if tree.Name != "r" || len(tree.Children) != 1 || tree.Children[0].Name != "a" {
		t.Errorf("roundtrip tree = %+v", tree)
	}
}

func TestSlowestAndSummary(t *testing.T) {
	root := NewSpan("r")
	root.AddTimed("fast", 10*time.Millisecond)
	root.AddTimed("slow", 90*time.Millisecond)
	root.End()
	// Each stage's line carries its own wall time, in attach order.
	lines := strings.Split(root.Summary(), "\n")
	if len(lines) < 3 || !strings.Contains(lines[1], "fast") || !strings.Contains(lines[1], "10.0ms") ||
		!strings.Contains(lines[2], "slow") || !strings.Contains(lines[2], "90.0ms") {
		t.Errorf("summary stages:\n%s", root.Summary())
	}
}

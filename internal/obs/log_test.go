package obs

import (
	"strings"
	"testing"
)

func TestLoggerFormat(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.Info("serving api", "addr", ":8080", "jobs", 2000)
	got := b.String()
	want := `level=info msg="serving api" addr=:8080 jobs=2000` + "\n"
	if got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
}

func TestLoggerLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	got := b.String()
	if strings.Contains(got, "level=debug") || strings.Contains(got, "level=info") {
		t.Errorf("below-threshold lines written:\n%s", got)
	}
	if !strings.Contains(got, "level=warn") || !strings.Contains(got, "level=error") {
		t.Errorf("missing warn/error lines:\n%s", got)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Error("Enabled thresholds wrong")
	}
}

func TestLoggerWithAndQuoting(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.Info("x", "component", "server", "path", "/api/classify", "detail", `quoted "value" here`, "empty", "")
	got := b.String()
	for _, frag := range []string{
		"component=server",
		"path=/api/classify",
		`detail="quoted \"value\" here"`,
		`empty=""`,
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("line missing %q: %s", frag, got)
		}
	}
}

func TestLoggerOddPairsAndNil(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.Info("x", "orphan")
	if !strings.Contains(b.String(), `orphan="(MISSING)"`) {
		t.Errorf("odd trailing key not flagged: %s", b.String())
	}

	var nl *Logger
	nl.Info("ignored", "k", "v") // must not panic
	nl.Error("ignored")
	if nl.Enabled(LevelError) {
		t.Error("nil logger must report disabled")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel must reject unknown levels")
	}
}

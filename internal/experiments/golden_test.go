package experiments

import (
	"strings"
	"testing"

	"repro/internal/testkit"
)

// sectionIVVIDs are the experiments whose outputs the paper's Sections IV
// and V report: the application/category accuracy tables, the threshold
// and unknown-population figures, the importance table, and the
// predictor-count sweep.
var sectionIVVIDs = []string{"table2", "fig1", "fig2", "fig3", "table3", "fig4", "fig5", "fig6"}

// goldenConfig is the fixed scale for the golden corpus. It is
// deliberately distinct from the shared tiny env so corpus digests never
// move when the driver tests change scale.
func goldenConfig() Config {
	return Config{
		Seed:          2015, // the paper's year, and the corpus anchor seed
		TrainPerClass: 25,
		TestJobs:      400,
		UnknownJobs:   200,
		SweepCounts:   []int{36, 5, 1},
	}
}

// renderResult lays out one experiment result for the golden corpus: the
// paper-formatted lines verbatim, then every scalar metric at full float
// precision (far past the 1e-9 bar the corpus asserts).
func renderResult(r *Result) string {
	var b strings.Builder
	testkit.Section(&b, r.ID+": "+r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	testkit.Section(&b, "metrics")
	b.WriteString(testkit.KeyVals(r.Metrics))
	return b.String()
}

// TestGoldenSectionIVV regenerates every Section IV/V experiment at two
// worker counts from two independent environments and requires (a) the
// renderings to be byte-identical across worker counts — parallel
// scheduling may not move any reported number — and (b) each rendering to
// match its committed golden file, which pins accuracies, confusion
// matrices, importance rankings, and sweep points to full precision.
func TestGoldenSectionIVV(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus regeneration is expensive")
	}
	cfg := goldenConfig()
	serial := NewEnv(cfg)
	resSerial, err := RunSelected(serial, sectionIVVIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelEnv := NewEnv(cfg)
	resParallel, err := RunSelected(parallelEnv, sectionIVVIDs, 2)
	if err != nil {
		t.Fatal(err)
	}
	pinResults(t, sectionIVVIDs, resSerial, resParallel)
}

// pinResults requires each experiment's two renderings to be
// byte-identical and to match its committed golden file.
func pinResults(t *testing.T, ids []string, resSerial, resParallel []*Result) {
	t.Helper()
	for i, id := range ids {
		got := renderResult(resSerial[i])
		if par := renderResult(resParallel[i]); par != got {
			line, a, b := diffLine(got, par)
			t.Errorf("%s: workers=1 and workers=2 disagree at line %d:\n  w1: %q\n  w2: %q", id, line, a, b)
			continue
		}
		testkit.GoldenString(t, id+".golden", got)
	}
}

// extensionIDs are the Section II experiments and the extensions: the
// transcript entries no paper table pins, where drift went unnoticed.
var extensionIDs = []string{"e1", "e2", "x1", "x2", "x3", "x4"}

// TestGoldenExtensions pins e1, e2 and x1-x4 the way TestGoldenSectionIVV
// pins the paper's tables, at the driver tests' reduced scale: the
// drivers run one at a time on the shared tiny environment against a
// fresh environment running two at a time, byte-identical and equal to
// the committed golden files.
func TestGoldenExtensions(t *testing.T) {
	resSerial := make([]*Result, len(extensionIDs))
	for i, id := range extensionIDs {
		resSerial[i] = tinyResult(t, id)
	}
	resParallel, err := RunSelected(NewEnv(env(t).Cfg), extensionIDs, 2)
	if err != nil {
		t.Fatal(err)
	}
	pinResults(t, extensionIDs, resSerial, resParallel)
}

// diffLine reports the first differing line between two renderings.
func diffLine(a, b string) (int, string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1, al[i], bl[i]
		}
	}
	return len(al), "<EOF>", "<EOF>"
}

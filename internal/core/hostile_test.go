package core_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ml/bayes"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testkit"
)

// Mirrors of the two on-disk forms whose packages keep them unexported
// (gob matches struct fields by name, so these decode and re-encode the
// real snapshots). The three model families need none: their exported
// Spec is the wire form.
type (
	classifierSnap struct {
		Algo     string
		Features []string
		Means    []float64
		Stds     []float64
		Model    []byte
	}
	stackSnap struct {
		Classes  []string
		Features int
		Bases    []string
		BaseBlob [][]byte
		Meta     [][]float64
	}
)

// corrupt decodes blob as a T, applies edit and re-encodes it.
func corrupt[T any](t testing.TB, blob []byte, edit func(*T)) []byte {
	t.Helper()
	var v T
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
		t.Fatalf("decoding %T: %v", v, err)
	}
	edit(&v)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("re-encoding %T: %v", v, err)
	}
	return buf.Bytes()
}

// corruptModel applies edit to the family snapshot nested in a saved
// classifier.
func corruptModel[T any](t testing.TB, saved []byte, edit func(*T)) []byte {
	t.Helper()
	return corrupt(t, saved, func(c *classifierSnap) { c.Model = corrupt(t, c.Model, edit) })
}

// hostileSnapshots trains one small classifier per algorithm, saves each
// (valid, keyed by algorithm) and derives structurally broken snapshots
// from them. Every hostile snapshot is a well-formed gob stream carrying
// exactly one defect that would index out of range, never return, or
// answer a posterior that is NaN or constant in the row, in a serving
// call: the loader has to refuse each one.
func hostileSnapshots(t testing.TB) (valid, hostile map[string][]byte) {
	t.Helper()
	save := func(algo core.Algorithm, classes int) []byte {
		cfg := core.PaperSVM(1)
		cfg.Algo = algo
		cfg.Forest.Trees = 8
		c, err := core.TrainJobClassifier(testkit.SynthClassification(testkit.SynthConfig{
			Seed: 11, Classes: classes, Features: 5, RowsPerCls: 15,
		}), cfg)
		if err != nil {
			t.Fatalf("training %s: %v", algo, err)
		}
		blob, err := c.SaveBytes()
		if err != nil {
			t.Fatalf("saving %s: %v", algo, err)
		}
		return blob
	}
	valid = map[string][]byte{}
	for _, algo := range []core.Algorithm{core.AlgoForest, core.AlgoSVM, core.AlgoBayes, core.AlgoStack} {
		valid[string(algo)] = save(algo, 3)
	}
	foreignNB := save(core.AlgoBayes, 2)
	splitRoot := func(s *forest.Spec) int {
		for i, tree := range s.Trees {
			if tree[0].Feature >= 0 {
				return i
			}
		}
		t.Fatal("forest has no tree with a split at the root")
		return 0
	}
	return valid, map[string][]byte{
		"forest out-of-range child": corruptModel(t, valid["rf"], func(s *forest.Spec) {
			s.Trees[splitRoot(s)][0].Left = 9999
		}),
		"forest self-referencing child": corruptModel(t, valid["rf"], func(s *forest.Spec) {
			s.Trees[splitRoot(s)][0].Left = 0
		}),
		"forest feature past the schema": corruptModel(t, valid["rf"], func(s *forest.Spec) {
			s.Trees[splitRoot(s)][0].Feature = 9999
		}),
		"svm short support-vector row": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			sv := s.Pairs[0].SV
			sv[0] = sv[0][:len(sv[0])-1]
		}),
		"svm NaN kernel gamma": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			s.Kernel.Gamma = math.NaN()
		}),
		"svm NaN coefficient": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			s.Pairs[0].Coef[0] = math.NaN()
		}),
		"svm NaN rho": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			s.Pairs[0].Rho = math.NaN()
		}),
		"svm NaN Platt A": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			s.Pairs[0].A = math.NaN()
		}),
		"svm infinite support-vector value": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			s.Pairs[0].SV[0][0] = math.Inf(1)
		}),
		"svm no pairs": corruptModel(t, valid["svm"], func(s *svm.Spec) {
			s.Pairs = nil
		}),
		"nb NaN mean": corruptModel(t, valid["nb"], func(s *bayes.Spec) {
			s.Means[1][0] = math.NaN()
		}),
		"nb NaN prior": corruptModel(t, valid["nb"], func(s *bayes.Spec) {
			s.Priors[1] = math.NaN()
		}),
		"nb infinite prior": corruptModel(t, valid["nb"], func(s *bayes.Spec) {
			s.Priors[1] = math.Inf(1)
		}),
		"nb ragged table": corruptModel(t, valid["nb"], func(s *bayes.Spec) {
			s.Means[1] = s.Means[1][:len(s.Means[1])-1]
		}),
		"nb no trained class": corruptModel(t, valid["nb"], func(s *bayes.Spec) {
			clear(s.Trained)
		}),
		"nb non-positive variance": corruptModel(t, valid["nb"], func(s *bayes.Spec) {
			s.Vars[1][0] = 0
		}),
		"scaler shorter than the schema": corrupt(t, valid["nb"], func(c *classifierSnap) {
			c.Means = c.Means[:len(c.Means)-1]
		}),
		"stack truncated meta row": corruptModel(t, valid["stack"], func(s *stackSnap) {
			last := len(s.Meta) - 1
			s.Meta[last] = s.Meta[last][:len(s.Meta[last])-1]
		}),
		"stack NaN meta weight": corruptModel(t, valid["stack"], func(s *stackSnap) {
			s.Meta[1][2] = math.NaN()
		}),
		"stack +Inf meta weight": corruptModel(t, valid["stack"], func(s *stackSnap) {
			s.Meta[1][2] = math.Inf(1)
		}),
		"stack -Inf meta weight": corruptModel(t, valid["stack"], func(s *stackSnap) {
			s.Meta[1][2] = math.Inf(-1)
		}),
		"stack base with a different class count": corruptModel(t, valid["stack"], func(s *stackSnap) {
			for i, name := range s.Bases {
				if name == "nb" {
					corrupt(t, foreignNB, func(c *classifierSnap) { s.BaseBlob[i] = c.Model })
					return
				}
			}
			t.Fatal("stack has no nb base")
		}),
	}
}

// TestHostileSnapshotsRefused is the fit-to-serve gate's contract, at
// every level a snapshot can arrive on: LoadJobClassifier errors;
// ReloadFromFile errors, counts model_swap_total{outcome="error"} and
// reports the still-serving generation; POST /admin/model/reload is a
// 400. None reaches Swap, so the champion's generation, its batch
// replies and /readyz are byte-identical before and after.
func TestHostileSnapshotsRefused(t *testing.T) {
	valid, hostile := hostileSnapshots(t)

	// Control: the untouched snapshots load, each on its family's
	// engine, so every refusal below is down to the one planted defect.
	for algo, blob := range valid {
		c, err := core.LoadJobClassifier(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("valid %s snapshot refused: %v", algo, err)
		}
		if want := algo != "stack"; c.IsCompiled() != want {
			t.Errorf("%s: compiled = %v, want %v (engine by family)", algo, c.IsCompiled(), want)
		}
	}

	for name, blob := range hostile {
		t.Run(name, func(t *testing.T) {
			if c, err := core.LoadJobClassifier(bytes.NewReader(blob)); err == nil {
				t.Fatalf("loaded (algo %s, compiled %v), want a load error", c.Algo, c.IsCompiled())
			}

			// A champion and server per case: consecutive refusals would
			// (rightly) open the reload breaker and flip /readyz.
			dir := t.TempDir()
			champion, hostilePath := filepath.Join(dir, "champion.bin"), filepath.Join(dir, "hostile.bin")
			for path, b := range map[string][]byte{champion: valid["rf"], hostilePath: blob} {
				if err := os.WriteFile(path, b, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			reg := obs.NewRegistry()
			mm := core.NewModelManager(reg)
			if gen, err := mm.ReloadFromFile(champion); err != nil || gen != 1 {
				t.Fatalf("champion load: gen=%d err=%v", gen, err)
			}
			srv := httptest.NewServer(server.New(nil, nil, 0, server.WithMetrics(reg), server.WithModelManager(mm)))
			defer srv.Close()
			call := func(method, path, body string) (int, []byte) {
				t.Helper()
				req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, b
			}
			var rows []map[string]float64
			for i := 0; i < 16; i++ {
				row := map[string]float64{}
				for j, f := range mm.View().Model.Features {
					row[f] = float64((i*7+j*3)%11) / 2
				}
				rows = append(rows, row)
			}
			batch, err := json.Marshal(map[string]any{"rows": rows, "threshold": 0.1})
			if err != nil {
				t.Fatal(err)
			}
			observe := func() string {
				t.Helper()
				bs, reply := call("POST", "/api/classify/batch", string(batch))
				rs, ready := call("GET", "/readyz", "")
				if bs != 200 || rs != 200 {
					t.Fatalf("champion not serving: batch %d, /readyz %d", bs, rs)
				}
				return fmt.Sprintf("%s\n%s", reply, ready)
			}
			before := observe()
			serving := mm.View()
			swapErrors := reg.Counter("model_swap_total", "outcome", "error")

			if gen, err := mm.ReloadFromFile(hostilePath); err == nil || gen != 1 {
				t.Errorf("ReloadFromFile: gen=%d err=%v, want an error and the serving generation 1", gen, err)
			}
			if status, body := call("POST", "/admin/model/reload", `{"path":"`+hostilePath+`"}`); status != 400 {
				t.Errorf("POST /admin/model/reload: status %d (%s), want 400", status, body)
			}
			if got := swapErrors.Value(); got != 2 {
				t.Errorf("model_swap_total{outcome=error} = %d after two refused reloads", got)
			}
			if mm.View() != serving || mm.Path() != champion {
				t.Errorf("refused reloads disturbed the manager: gen=%d path=%q", mm.Generation(), mm.Path())
			}
			if after := observe(); after != before {
				t.Errorf("the champion's replies changed after refused reloads:\n before: %s\n after:  %s", before, after)
			}
		})
	}
}

// TestOneCompileVerdict pins the single decision point: package core
// lowers a model in exactly one place, and the method that let callers
// compute the verdict and drop it is gone from the whole tree.
func TestOneCompileVerdict(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		calls += bytes.Count(b, []byte("compile.Compile("))
	}
	if calls != 1 {
		t.Errorf("compile.Compile( is called %d times in package core, want 1 (newJobClassifier)", calls)
	}

	gone := "Ensure" + "Compiled"
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		switch {
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && rel != ".":
			return filepath.SkipDir // .git, .bench_build, ...
		case d.IsDir() || !d.Type().IsRegular():
			return nil
		case rel == "CHANGES.md" || rel == "ISSUE.md": // history and the task text name it
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// bench/bench is a stale checked-in binary no PR may touch
		// (BENCHMARK.json paths); only text can be kept honest.
		if bytes.IndexByte(b, 0) < 0 && bytes.Contains(b, []byte(gone)) {
			t.Errorf("%s still mentions %s", rel, gone)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

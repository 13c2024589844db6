package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// swapFixture is a server whose manager serves modelA, plus two saved
// compatible models (A and B, same schema, different forests) and one
// incompatible model (narrower feature set) on disk.
type swapFixture struct {
	srv      *httptest.Server
	reg      *obs.Registry
	models   *core.ModelManager
	pathA    string
	pathB    string
	pathBad  string
	features []string
}

func saveModel(t *testing.T, path string, m *core.JobClassifier) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func newSwapFixture(t *testing.T) *swapFixture {
	t.Helper()
	res, ds := pipeline(t, 91, 200), categoryData(t, 91, 200)
	modelA, modelB := smallForest(t, 3, 40), smallForest(t, 7, 50)

	// An incompatible schema: same records, narrower feature set.
	modelBad := shared(t, "nb on narrow category 91/200", func() (*core.JobClassifier, error) {
		dsNarrow, err := core.BuildDataset(res.Records, core.LabelByCategory, core.FeatureOptions{})
		if err != nil {
			return nil, err
		}
		return core.TrainJobClassifier(dsNarrow, core.ClassifierConfig{Algo: core.AlgoBayes})
	})

	dir := t.TempDir()
	fx := &swapFixture{
		pathA:    filepath.Join(dir, "a.bin"),
		pathB:    filepath.Join(dir, "b.bin"),
		pathBad:  filepath.Join(dir, "bad.bin"),
		features: ds.FeatureNames,
	}
	saveModel(t, fx.pathA, modelA)
	saveModel(t, fx.pathB, modelB)
	saveModel(t, fx.pathBad, modelBad)

	fx.reg = obs.NewRegistry()
	fx.models = core.NewModelManager(fx.reg)
	if _, err := fx.models.ReloadFromFile(fx.pathA); err != nil {
		t.Fatal(err)
	}
	fx.srv = httptest.NewServer(New(res.Store, nil, 6400,
		WithMetrics(fx.reg), WithModelManager(fx.models), WithBatchWorkers(2)))
	t.Cleanup(fx.srv.Close)
	return fx
}

// reload POSTs /admin/model/reload and returns status plus decoded body.
func (fx *swapFixture) reload(t *testing.T, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(fx.srv.URL+"/admin/model/reload", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&payload)
	return resp.StatusCode, payload
}

// classifyBody is a deterministic full-coverage classify request.
func (fx *swapFixture) classifyBody() []byte {
	features := make(map[string]float64, len(fx.features))
	for i, n := range fx.features {
		features[n] = float64(i%5) / 4
	}
	body, _ := json.Marshal(map[string]any{"features": features, "threshold": 0.1})
	return body
}

func TestAdminModelReload(t *testing.T) {
	fx := newSwapFixture(t)

	var meta struct {
		Generation uint64 `json:"generation"`
	}
	if code := getJSON(t, fx.srv.URL+"/api/features", &meta); code != 200 || meta.Generation != 1 {
		t.Fatalf("boot generation = %d (status %d)", meta.Generation, code)
	}

	status, payload := fx.reload(t, `{"path":"`+fx.pathB+`"}`)
	if status != 200 {
		t.Fatalf("reload status %d: %v", status, payload)
	}
	if gen, _ := payload["generation"].(float64); gen != 2 {
		t.Fatalf("reload reported generation %v, want 2", payload["generation"])
	}
	if code := getJSON(t, fx.srv.URL+"/api/features", &meta); code != 200 || meta.Generation != 2 {
		t.Fatalf("post-reload generation = %d", meta.Generation)
	}

	// An empty body reloads the remembered path (now pathB).
	if status, payload = fx.reload(t, ``); status != 200 {
		t.Fatalf("bare reload status %d: %v", status, payload)
	}
	if gen, _ := payload["generation"].(float64); gen != 3 {
		t.Fatalf("bare reload generation %v, want 3", payload["generation"])
	}

	// A missing file is a 400 and leaves the serving model alone.
	if status, _ = fx.reload(t, `{"path":"/nonexistent/model.bin"}`); status != 400 {
		t.Fatalf("missing file reload status %d, want 400", status)
	}
	if fx.models.Generation() != 3 {
		t.Fatalf("failed reload bumped generation to %d", fx.models.Generation())
	}

	resp, err := http.Post(fx.srv.URL+"/api/classify", "application/json", bytes.NewReader(fx.classifyBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("classify after reloads: status %d", resp.StatusCode)
	}
}

func TestReloadSchemaMismatchKeepsServing(t *testing.T) {
	fx := newSwapFixture(t)

	status, payload := fx.reload(t, `{"path":"`+fx.pathBad+`"}`)
	if status != http.StatusConflict {
		t.Fatalf("schema-mismatch reload status %d, want 409 (%v)", status, payload)
	}
	if fx.models.Generation() != 1 {
		t.Fatalf("rejected reload bumped generation to %d", fx.models.Generation())
	}
	if got := fx.reg.Counter("model_swap_total", "outcome", "rejected").Value(); got != 1 {
		t.Errorf("rejected swap counter = %d", got)
	}
	// The old model still classifies.
	resp, err := http.Post(fx.srv.URL+"/api/classify", "application/json", bytes.NewReader(fx.classifyBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("classify after rejected reload: status %d", resp.StatusCode)
	}
}

// TestHotSwapUnderLoad is the acceptance gate for atomic swap: sustained
// single and batch classify traffic while the model flips between two
// generations must see zero failed requests and zero torn reads -- every
// response byte-equal to what one of the two models produces. Run under
// -race via make race.
func TestHotSwapUnderLoad(t *testing.T) {
	fx := newSwapFixture(t)
	body := fx.classifyBody()

	// Reference responses for each generation, captured with the swap
	// quiesced.
	classify := func() []byte {
		resp, err := http.Post(fx.srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	wantA := classify()
	if status, _ := fx.reload(t, `{"path":"`+fx.pathB+`"}`); status != 200 {
		t.Fatal("priming reload failed")
	}
	wantB := classify()
	if bytes.Equal(wantA, wantB) {
		t.Fatal("fixture models classify identically; the torn-read check would be vacuous")
	}

	const clients = 4
	const perClient = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(fx.srv.URL+"/api/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- "status " + resp.Status
					return
				}
				if got := buf.Bytes(); !bytes.Equal(got, wantA) && !bytes.Equal(got, wantB) {
					errs <- "torn response: " + buf.String()
					return
				}
			}
		}()
	}

	// Flip the model while the clients hammer it.
	paths := [2]string{fx.pathA, fx.pathB}
	for i := 0; i < 24; i++ {
		if status, payload := fx.reload(t, `{"path":"`+paths[i%2]+`"}`); status != 200 {
			close(stop)
			wg.Wait()
			t.Fatalf("reload %d failed: %v", i, payload)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// 2 priming swaps in the fixture/reference setup + 24 here.
	if got := fx.reg.Counter("model_swap_total", "outcome", "ok").Value(); got != 26 {
		t.Errorf("ok swap counter = %d, want 26", got)
	}
}

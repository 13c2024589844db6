package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/forest"
)

// TestNonFiniteProbabilityRefused: a finite, JSON-legal feature value of
// 1e308 overflows the standardized row, and a Gaussian likelihood over it
// is -Inf for every class, so NB -- and the stack, the lifecycle's
// default challenger, through its NB base -- answers 0/0. That row used
// to commit a 200 and then fail to encode: an empty body. Whatever the
// family, a governed row route answers either a 200 whose probabilities
// are numbers or a 400 naming the offending feature, never observed by
// the lifecycle loop and never an encode error.
func TestNonFiniteProbabilityRefused(t *testing.T) {
	fx := newLCFixture(t)
	rows, labels := lcTraffic(11, 240, false)
	train, err := dataset.New(fx.names, rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.PaperSVM(7)
	cfg.Forest = forest.Config{Trees: 20, Seed: 7}
	cfg.Stack = ensemble.Config{Seed: 7, Forest: forest.Config{Trees: 20}}

	huge := map[string]float64{}
	for i, name := range fx.names {
		huge[name] = rows[0][i]
	}
	huge[fx.names[2]] = 1e308
	single, _ := json.Marshal(map[string]any{"features": huge, "threshold": 0.1})
	good := map[string]float64{}
	for i, name := range fx.names {
		good[name] = rows[1][i]
	}
	batch, _ := json.Marshal(map[string]any{"rows": []map[string]float64{good, huge}, "threshold": 0.1})

	for _, algo := range []core.Algorithm{core.AlgoForest, core.AlgoSVM, core.AlgoBayes, core.AlgoStack} {
		cfg.Algo = algo
		model, err := core.TrainJobClassifier(train, cfg)
		if err != nil {
			t.Fatalf("training %s: %v", algo, err)
		}
		if _, err := fx.models.Swap(model); err != nil {
			t.Fatal(err)
		}
		for path, req := range map[string]struct {
			body []byte
			rows uint64
		}{"/api/classify": {single, 1}, "/api/classify/batch": {batch, 2}} {
			t.Run(string(algo)+path, func(t *testing.T) {
				badRequests := fx.reg.Counter("classify_outcomes_total", "outcome", "bad_request")
				_, before := fx.status(t)
				bad := badRequests.Value()

				resp, err := http.Post(fx.srv.URL+path, "application/json", bytes.NewReader(req.body))
				if err != nil {
					t.Fatal(err)
				}
				reply, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				var decoded map[string]any
				if err := json.Unmarshal(reply, &decoded); err != nil {
					t.Fatalf("status %d with a body that is not JSON (%q): %v", resp.StatusCode, reply, err)
				}
				_, after := fx.status(t)
				seen := after.RowsObserved - before.RowsObserved
				switch resp.StatusCode {
				case http.StatusOK:
					// rf and svm have a finite answer for the row.
					if seen != req.rows {
						t.Errorf("lifecycle observed %d rows of a served request carrying %d", seen, req.rows)
					}
				case http.StatusBadRequest:
					msg, _ := decoded["error"].(string)
					if !strings.Contains(msg, "out of range") || !strings.Contains(msg, fx.names[2]) {
						t.Errorf("400 body %q does not name the out-of-range feature %s", msg, fx.names[2])
					}
					if path == "/api/classify/batch" && !strings.Contains(msg, "row 1") {
						t.Errorf("400 body %q does not name the batch row", msg)
					}
					if got := badRequests.Value() - bad; got != 1 {
						t.Errorf("classify_outcomes_total{bad_request} moved by %d, want 1", got)
					}
					// The batch's finite row may have been observed before
					// its neighbour failed; the refused row never is.
					if seen >= req.rows {
						t.Errorf("lifecycle observed %d rows of a refused request", seen)
					}
				default:
					t.Errorf("status %d (%s), want 200 or 400", resp.StatusCode, reply)
				}
				if wantRefused := algo == core.AlgoBayes || algo == core.AlgoStack; wantRefused != (resp.StatusCode == http.StatusBadRequest) {
					t.Errorf("%s answered %d: only the Gaussian families overflow on this row", algo, resp.StatusCode)
				}
				if got := fx.reg.Counter("http_encode_errors_total").Value(); got != 0 {
					t.Errorf("http_encode_errors_total = %d, want 0", got)
				}
			})
		}
	}
}

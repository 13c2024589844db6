package compile_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ml/compile"
	"repro/internal/ml/svm"
	"repro/internal/rng"
)

// tailShape describes a hand-built one-vs-one SVM: pool distinct support
// vectors shared by the pair machines, and one window length per class
// pair in (0,1), (0,2), ..., (k-2,k-1) order. A negative length omits
// the pair, zero keeps a machine with no support vectors.
type tailShape struct {
	name    string
	classes int
	pool    int
	lens    []int
}

// tailShapes puts every remainder of the compiled row kernel's 4-wide
// loops on the table: unique-vector counts of each residue mod 4
// (including fewer than four), pair counts that are odd, below four and
// multiples of four, pairs of unequal and of zero length, a single-pair
// model and a class no pair trains.
var tailShapes = []tailShape{
	{"five pairs one empty, 6 vectors", 4, 6, []int{4, 0, 6, 3, -1, 5}},
	{"nine unequal pairs, 7 vectors", 5, 7, []int{1, 7, 2, 6, 3, 5, 4, -1, 7, 1}},
	{"eight equal pairs, 8 vectors", 5, 8, []int{8, 8, 8, 8, -1, 8, 8, -1, 8, 8}},
	{"three pairs, 3 vectors", 3, 3, []int{2, 3, 1}},
	{"single pair, 5 vectors", 2, 5, []int{5}},
	{"inactive class, 4 vectors", 4, 4, []int{3, 2, -1, 4, -1, -1}},
}

var tailKernel = svm.KernelSpec{Name: "rbf", Gamma: 0.1}

// tailModel builds the shape as an interpreted model plus the probe
// rows to score: every pooled support vector, a few rows off them, the
// origin and a row of non-finite values.
func tailModel(t testing.TB, sh tailShape, calibrated bool, features int) (*svm.Model, [][]float64) {
	t.Helper()
	r := rng.New(uint64(7*sh.classes + sh.pool))
	vec := func() []float64 {
		v := make([]float64, features)
		for f := range v {
			v[f] = 2 * r.Normal()
		}
		return v
	}
	pool := make([][]float64, sh.pool)
	for u := range pool {
		pool[u] = vec()
	}

	spec := &svm.Spec{Features: features, Kernel: tailKernel}
	for c := 0; c < sh.classes; c++ {
		spec.Classes = append(spec.Classes, fmt.Sprintf("class%02d", c))
	}
	used := make([]bool, sh.pool)
	pi := 0
	for i := 0; i < sh.classes; i++ {
		for j := i + 1; j < sh.classes; j++ {
			n := sh.lens[pi]
			pi++
			if n < 0 {
				continue
			}
			p := svm.PairSpec{I: i, J: j, Rho: 0.1 * r.Normal(), HasAB: calibrated}
			if calibrated {
				p.A, p.B = -1.5+0.2*r.Normal(), 0.1*r.Normal()
			}
			// Windows start at a different pool vector per pair, so
			// neighbouring machines read the shared kernel values in
			// different orders.
			for s := 0; s < n; s++ {
				u := (pi + s) % sh.pool
				used[u] = true
				p.SV = append(p.SV, pool[u])
				p.Coef = append(p.Coef, r.Normal())
			}
			spec.Pairs = append(spec.Pairs, p)
		}
	}
	for u, ok := range used {
		if !ok {
			t.Fatalf("shape %q never references pool vector %d: its unique count is not %d", sh.name, u, sh.pool)
		}
	}

	m, err := svm.FromSpec(spec)
	if err != nil {
		t.Fatalf("shape %q: %v", sh.name, err)
	}

	probes := append([][]float64(nil), pool...)
	for i := 0; i < 4; i++ {
		probes = append(probes, vec())
	}
	probes = append(probes, make([]float64, features))
	odd := make([]float64, features)
	odd[0], odd[1], odd[2] = math.NaN(), math.Inf(1), math.Inf(-1)
	probes = append(probes, odd)
	return m, probes
}

// TestSVMTailShapeParity holds the compiled SVM bit-equal to the
// interpreted one on every remainder the 4-wide kernel and decision
// loops can leave.
func TestSVMTailShapeParity(t *testing.T) {
	for _, sh := range tailShapes {
		for _, calibrated := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/%s/calibrated=%v", sh.name, tailKernel.Name, calibrated), func(t *testing.T) {
				m, probes := tailModel(t, sh, calibrated, 5)
				cm, err := compile.Compile(m)
				if err != nil {
					t.Fatal(err)
				}
				assertParity(t, m, cm, probes)
			})
		}
	}
}

// scoreBlocked scores rows the way a batch caller does: full blocks
// through PredictProbBlock, the remainder through PredictProb. The
// posteriors are copied out of the scratch.
func scoreBlocked(m *compile.SVM, rows [][]float64) ([]int, [][]float64) {
	bs, s := m.NewBlockScratch(), m.NewScratch()
	cls, probs := make([]int, len(rows)), make([][]float64, len(rows))
	i := 0
	for ; i+compile.BlockRows <= len(rows); i += compile.BlockRows {
		bc, bp := m.PredictProbBlock(rows[i:i+compile.BlockRows], bs)
		for r := range bc {
			cls[i+r], probs[i+r] = bc[r], append([]float64(nil), bp[r]...)
		}
	}
	for ; i < len(rows); i++ {
		c, p := m.PredictProb(rows[i], s)
		cls[i], probs[i] = c, append([]float64(nil), p...)
	}
	return cls, probs
}

// assertBlockParity requires every row's winning class and posterior
// from scoreBlocked to be Float64bits-equal to PredictProb on the row
// alone.
func assertBlockParity(t *testing.T, m *compile.SVM, rows [][]float64) {
	t.Helper()
	gotCls, gotProbs := scoreBlocked(m, rows)
	s := m.NewScratch()
	for i, row := range rows {
		wantCls, wantProbs := m.PredictProb(row, s)
		if gotCls[i] != wantCls {
			t.Fatalf("row %d of %d: block class %d, per-row %d", i, len(rows), gotCls[i], wantCls)
		}
		for c := range wantProbs {
			if math.Float64bits(gotProbs[i][c]) != math.Float64bits(wantProbs[c]) {
				t.Fatalf("row %d of %d: posterior[%d] block %x (%g), per-row %x (%g)", i, len(rows), c,
					math.Float64bits(gotProbs[i][c]), gotProbs[i][c], math.Float64bits(wantProbs[c]), wantProbs[c])
			}
		}
	}
}

// TestSVMBlockParity holds the row block to per-row PredictProb, bit for
// bit, on every tail shape (odd unique-vector counts, empty pairs,
// calibrated or not) at batch sizes that leave every remainder mod
// BlockRows, and at 256 rows. Rows cycle through the shape's probes
// (support vectors, the origin, non-finite values) and fresh draws.
func TestSVMBlockParity(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 256}
	for _, sh := range tailShapes {
		for _, calibrated := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/calibrated=%v", sh.name, calibrated), func(t *testing.T) {
				const features = 5
				im, probes := tailModel(t, sh, calibrated, features)
				m, err := compile.CompileSVM(im.Spec())
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(uint64(sh.pool))
				rows := make([][]float64, 256)
				for i := range rows {
					if i%3 == 0 {
						rows[i] = probes[(i/3)%len(probes)]
						continue
					}
					rows[i] = make([]float64, features)
					for f := range rows[i] {
						rows[i][f] = 3 * r.Normal()
					}
				}
				for _, n := range sizes {
					assertBlockParity(t, m, rows[:n])
				}
			})
		}
	}
}

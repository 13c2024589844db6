package ensemble

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml/forest"
	"repro/internal/ml/svm"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// metaInput builds a meta-training set of the stack's shape: rows x
// (bases*classes) concatenated base posteriors and the true classes. Each
// base's posterior leans toward the true class by a random margin, so
// the softmax has something to fit and rows differ.
func metaInput(classes, bases, rows int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	z := make([][]float64, rows)
	y := make([]int, rows)
	for i := range z {
		y[i] = i % classes
		z[i] = make([]float64, bases*classes)
		for b := 0; b < bases; b++ {
			p := z[i][b*classes : (b+1)*classes]
			var sum float64
			for c := range p {
				p[c] = r.Float64()
				if c == y[i] {
					p[c] += float64(b+1) * r.Float64()
				}
				sum += p[c]
			}
			for c := range p {
				p[c] /= sum
			}
		}
	}
	return z, y
}

// BenchmarkFitSoftmax is the meta fit at the served stack's shape: 12
// classes, 3 bases (36 meta columns), 2 800 rows.
func BenchmarkFitSoftmax(b *testing.B) {
	z, y := metaInput(12, 3, 2800, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitSoftmax(z, y, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// servedShape is a 12-class, 36-feature, 2 800-row training set, the
// shape the category stack trains on.
func servedShape() *dataset.Dataset {
	d := testkit.SynthClassification(testkit.SynthConfig{
		Seed: 42, Classes: 12, Features: 36, RowsPerCls: 234, Spread: 0.5,
	})
	idx := make([]int, 2800)
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

// BenchmarkTrainStack fits the lifecycle loop's default challenger (NB +
// 40-tree RF + RBF C=10 SVM) on the served shape and reports the wall
// time of each phase of the fit per op: the out-of-fold base fits and
// scoring, the meta fit and the full-data base fits.
func BenchmarkTrainStack(b *testing.B) {
	d := servedShape()
	phases := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := obs.NewSpan("bench")
		if _, err := Train(d, Config{
			Seed:   7,
			Forest: forest.Config{Trees: 40, Seed: 7},
			SVM:    svm.Config{Kernel: svm.RBF{Gamma: 0.1}, C: 10, Probability: true, Seed: 7},
			Span:   sp,
		}); err != nil {
			b.Fatal(err)
		}
		sp.End()
		for _, stack := range sp.Tree().Children {
			for _, phase := range stack.Children {
				phases[phase.Name] += phase.WallMS
			}
		}
	}
	for name, ms := range phases {
		b.ReportMetric(ms/float64(b.N), name+"_ms/op")
	}
}

package ensemble

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// referenceFitSoftmax is the meta fit as one serial loop, the oracle the
// parallel fitSoftmax is held to: per iteration, every row's softmax and
// then its delta times the row added into each class's gradient, rows in
// index order.
func referenceFitSoftmax(z [][]float64, y []int, nc int) [][]float64 {
	width := len(z[0])
	w := make([][]float64, nc)
	grad := make([][]float64, nc)
	for c := range w {
		w[c] = make([]float64, width+1)
		grad[c] = make([]float64, width+1)
	}
	probs := make([]float64, nc)
	n := float64(len(z))
	for it := 0; it < metaIters; it++ {
		for c := range grad {
			for j := range grad[c] {
				grad[c][j] = 0
			}
		}
		for i, row := range z {
			referenceSoftmaxInto(w, row, probs)
			for c := 0; c < nc; c++ {
				delta := probs[c]
				if c == y[i] {
					delta -= 1
				}
				g := grad[c]
				for j, v := range row {
					g[j] += delta * v
				}
				g[width] += delta
			}
		}
		for c := 0; c < nc; c++ {
			for j := 0; j <= width; j++ {
				l2 := metaL2 * w[c][j]
				if j == width {
					l2 = 0 // bias is unregularized
				}
				w[c][j] -= metaRate * (grad[c][j]/n + l2)
			}
		}
	}
	return w
}

// referenceSoftmaxInto scores one class at a time.
func referenceSoftmaxInto(w [][]float64, row []float64, out []float64) {
	width := len(row)
	maxScore := math.Inf(-1)
	for c := range w {
		s := w[c][width] // bias
		for j, v := range row {
			s += w[c][j] * v
		}
		out[c] = s
		if s > maxScore {
			maxScore = s
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxScore)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// sameBits reports whether two matrices hold the same float64 bits.
func sameBits(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("[%d][%d] = %v, reference %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// TestFitSoftmaxMatchesReference holds the parallel meta fit to the
// serial oracle bit for bit, at one and four procs. With three bases the
// shapes cover class counts that fill whole four-class trips, leave a
// remainder, or both; meta widths (3 x classes) of every value mod 4;
// and row counts that end on a block boundary, mid-block, or inside the
// first block.
func TestFitSoftmaxMatchesReference(t *testing.T) {
	for _, shape := range []struct{ classes, rows int }{{7, 301}, {8, 256}, {9, 130}, {10, 200}, {3, 64}} {
		z, y := metaInput(shape.classes, 3, shape.rows, uint64(shape.classes))
		want := referenceFitSoftmax(z, y, shape.classes)
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%dclasses/%drows/procs%d", shape.classes, shape.rows, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, err := fitSoftmax(z, y, shape.classes)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("weights differ from the serial fit: %v", err)
				}
			})
		}
	}
}

// TestSoftmaxIntoMatchesReference scores rows through the four-class
// trips and the one-class reference, on ordinary posteriors and on rows
// and weights no fit produces (NaN, infinities, huge values), and
// requires the same bits.
func TestSoftmaxIntoMatchesReference(t *testing.T) {
	for _, classes := range []int{1, 2, 4, 5, 7, 8, 11} {
		z, y := metaInput(classes, 3, 40, 3)
		w := referenceFitSoftmax(z, y, classes)
		odd := make([]float64, len(z[0]))
		for j := range odd {
			odd[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, math.Copysign(0, -1)}[j%5]
		}
		z = append(z, odd)
		hostileW := make([][]float64, classes)
		for c := range hostileW {
			hostileW[c] = append([]float64(nil), w[c]...)
			hostileW[c][c%len(w[c])] = []float64{math.Inf(1), 1e300, math.NaN()}[c%3]
		}
		for _, weights := range [][][]float64{w, hostileW} {
			got := make([][]float64, len(z))
			want := make([][]float64, len(z))
			for i, row := range z {
				got[i], want[i] = make([]float64, classes), make([]float64, classes)
				softmaxInto(weights, row, got[i])
				referenceSoftmaxInto(weights, row, want[i])
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%d classes: %v", classes, err)
			}
		}
	}
}

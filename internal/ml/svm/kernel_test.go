package svm

import (
	"encoding/binary"
	"math"
	"testing"
)

// checkRBFRows compares every row newKernelCache fills for x against
// RBF.Compute entry by entry. Entries must carry the
// same bits, or both be NaN: when a difference or a sum meets two
// different NaNs (a NaN input and the NaN of Inf-Inf, say), which
// payload survives depends on the operand order, which the subtraction
// reverses and the compiler may pick for a commutative add.
func checkRBFRows(t *testing.T, x [][]float64, gamma float64) {
	t.Helper()
	k := RBF{Gamma: gamma}
	c := newKernelCache(x, k, 1<<20)
	for i := range x {
		row := c.get(i)
		for j := range x {
			got, want := row[j], k.Compute(x[i], x[j])
			same := math.Float64bits(got) == math.Float64bits(want)
			if !same && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d row %d entry %d = %v (%#x), RBF.Compute %v (%#x)",
					len(x), i, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestRBFRowMatchesCompute holds the four-in-flight RBF row fill to
// RBF.Compute bit for bit (a NaN to a NaN), on problems of every size mod 4 whose rows
// mix ordinary values with NaN, both infinities, both zeros and
// subnormals.
func TestRBFRowMatchesCompute(t *testing.T) {
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-308,
		1.5, -0.75, 3.25, 1e154, -1e-3,
	}
	const features = 5
	for n := 1; n <= 12; n++ {
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, features)
			for f := range x[i] {
				// Rows 0 and 1 are ordinary; the rest walk the special
				// values so each feature meets each of them.
				v := float64(i*features+f) * 0.37
				if i >= 2 {
					v = special[(i*7+f*3)%len(special)]
				}
				x[i][f] = v
			}
		}
		for _, gamma := range []float64{0.1, 1, 0} {
			checkRBFRows(t, x, gamma)
		}
	}
}

// FuzzRBFRow checks the RBF row fill against RBF.Compute on arbitrary
// float64 bit patterns: the bytes are cut into a gamma and then rows of
// three features.
func FuzzRBFRow(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0.1, 1, 2, 3, 4, 5, 6))
	f.Add(seed(0.5, math.NaN(), 0, 1, math.Inf(1), math.Inf(-1), 2, 5e-324, -0.0, 7, 1, 1, 1, 2, 2, 2))
	f.Add(seed(1, 1e300, -1e300, 0, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		const features = 3
		if len(data) < 8*(1+features) {
			return
		}
		gamma := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		var x [][]float64
		for len(data) >= 8*features && len(x) < 64 {
			row := make([]float64, features)
			for f := range row {
				row[f] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*f:]))
			}
			x = append(x, row)
			data = data[8*features:]
		}
		checkRBFRows(t, x, gamma)
	})
}

package forest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/testkit"
)

// tieCase names one tie-heavy training set built by tieDataset.
type tieCase struct {
	seed                         uint64
	rows, feats, levels, classes int
}

// tieCases are the datasets forest_ties.golden pins.
var tieCases = []tieCase{
	{seed: 1, rows: 60, feats: 5, levels: 2, classes: 3},
	{seed: 2, rows: 90, feats: 7, levels: 3, classes: 4},
	{seed: 3, rows: 40, feats: 4, levels: 4, classes: 2},
}

// tieDataset builds a training set made of ties: column 0 is constant,
// column 1 mixes -0, +0 and 1, column 2 takes -Inf, 0 and +Inf, and every
// further column is quantized to levels values that lean on the class.
// Every fourth row repeats an earlier row's features, half the time under
// another label. It needs feats >= 3, levels >= 2 and classes >= 1.
func tieDataset(c tieCase) (*dataset.Dataset, []float64) {
	r := rng.New(c.seed)
	negZero := math.Copysign(0, -1)
	rows := make([][]float64, c.rows)
	labels := make([]string, c.rows)
	y := make([]float64, c.rows)
	for i := range rows {
		cls := r.Intn(c.classes)
		row := make([]float64, c.feats)
		if i%4 == 3 {
			j := r.Intn(i)
			copy(row, rows[j])
			if r.Bool(0.5) {
				cls = r.Intn(c.classes)
			}
		} else {
			row[0] = 7
			row[1] = [3]float64{negZero, 0, 1}[r.Intn(3)]
			row[2] = [3]float64{math.Inf(-1), 0, math.Inf(1)}[lean(r, cls, 3)]
			for f := 3; f < c.feats; f++ {
				row[f] = 0.5 * float64(lean(r, cls, c.levels))
			}
		}
		rows[i] = row
		labels[i] = fmt.Sprintf("c%d", cls)
		y[i] = float64(cls) + math.Sqrt(float64(i%5+2))
	}
	d, err := dataset.New(featNames(c.feats), rows, labels)
	if err != nil {
		panic(err)
	}
	return d, y
}

// lean draws one of levels values: the class's own most of the time, a
// uniform one otherwise.
func lean(r *rng.Rand, cls, levels int) int {
	if r.Bool(0.3) {
		return r.Intn(levels)
	}
	return cls % levels
}

// treesDigest hashes every node's feature, threshold bits, children,
// class and value bits.
func treesDigest(trees [][]NodeSpec) string {
	var rows [][]int
	for _, tr := range trees {
		for _, n := range tr {
			rows = append(rows, []int{n.Feature, int(math.Float64bits(n.Threshold)),
				int(n.Left), int(n.Right), n.Pred, int(math.Float64bits(n.Value))})
		}
	}
	return testkit.HashInts(rows...)
}

// TestGoldenForestTies pins forests grown on tie-heavy data, where a
// split search that let the order of equal values leak into a score, a
// threshold or a node's value would show: each case's trees, OOB error
// and importance, and a regression forest on the same rows, at MinLeaf
// 1 and 5 and MaxDepth 0 and 4. Four workers must reproduce one.
func TestGoldenForestTies(t *testing.T) {
	var b strings.Builder
	for _, c := range tieCases {
		d, y := tieDataset(c)
		for _, minLeaf := range []int{1, 5} {
			for _, maxDepth := range []int{0, 4} {
				cfg := Config{Trees: 25, Seed: c.seed, MinLeaf: minLeaf, MaxDepth: maxDepth}
				testkit.Section(&b, fmt.Sprintf("seed %d: %d rows, %d features, %d levels, %d classes; min_leaf %d, max_depth %d",
					c.seed, c.rows, c.feats, c.levels, c.classes, minLeaf, maxDepth))
				var cls [2]*Classifier
				var reg [2]*Regressor
				for i, w := range []int{1, 4} {
					cfg.Workers = w
					var err error
					if cls[i], err = TrainClassifier(d, cfg); err != nil {
						t.Fatal(err)
					}
					if reg[i], err = TrainRegressor(d.X, y, cfg); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(cls[0].spec, cls[1].spec) || !reflect.DeepEqual(reg[0].trees, reg[1].trees) {
					t.Fatalf("seed %d min_leaf %d max_depth %d: 4 workers grew other trees than 1", c.seed, minLeaf, maxDepth)
				}
				imp := cls[0].Importance()
				if !reflect.DeepEqual(imp, cls[1].Importance()) {
					t.Fatalf("seed %d min_leaf %d max_depth %d: 4 workers changed the importance", c.seed, minLeaf, maxDepth)
				}
				fmt.Fprintf(&b, "classifier = %s\n", treesDigest(cls[0].spec.Trees))
				fmt.Fprintf(&b, "oob_error  = %s\n", testkit.Float(cls[0].OOBError()))
				fmt.Fprintf(&b, "importance = %s\n", testkit.Floats(imp))
				fmt.Fprintf(&b, "regressor  = %s\n", treesDigest(reg[0].trees))
				fmt.Fprintf(&b, "oob_r2     = %s\n", testkit.Float(reg[0].OOBR2()))
			}
		}
	}
	testkit.GoldenString(t, "forest_ties.golden", b.String())
}

// Package svm implements a support vector machine classifier equivalent in
// algorithm family to the R e1071 / LIBSVM stack the paper used: a binary
// C-SVC solved by SMO with second-order working-set selection, RBF /
// linear / polynomial kernels with an LRU row cache, one-vs-one multiclass
// decomposition, per-pair Platt sigmoid probability calibration (on
// cross-validated decision values), and Wu-Lin-Weng pairwise coupling for
// multiclass posterior probabilities. An epsilon-SVR regressor shares the
// SMO machinery for the application-kernel wall-time regression extension.
package svm

import "math"

// Kernel computes inner products in feature space.
type Kernel interface {
	// Compute returns K(a, b).
	Compute(a, b []float64) float64
	// Name identifies the kernel for diagnostics.
	Name() string
}

// RBF is the Gaussian radial basis kernel exp(-gamma*||a-b||^2), the
// kernel the paper tuned with gamma = 0.1.
type RBF struct{ Gamma float64 }

// Compute returns exp(-gamma*||a-b||^2).
func (k RBF) Compute(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// Name returns "rbf".
func (k RBF) Name() string { return "rbf" }

// Linear is the dot-product kernel.
type Linear struct{}

// Compute returns a . b.
func (Linear) Compute(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Name returns "linear".
func (Linear) Name() string { return "linear" }

// Poly is the polynomial kernel (gamma*a.b + coef0)^degree.
type Poly struct {
	Gamma  float64
	Coef0  float64
	Degree int
}

// Compute returns (gamma*a.b + coef0)^degree.
func (k Poly) Compute(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return math.Pow(k.Gamma*s+k.Coef0, float64(k.Degree))
}

// Name returns "poly".
func (k Poly) Name() string { return "poly" }

// rowCache caches kernel matrix rows for the SMO solver with LRU eviction
// under a byte budget. It is not safe for concurrent use: one goroutine
// owns a cache, and every solve over the same rows (a pair's full problem
// and its Platt folds, the two halves of an SVR dual) reads the one cache
// through an index view, so a row is computed once while the budget lasts
// and recomputed on a miss when it does not.
type rowCache struct {
	compute func(i int) []float64
	diag    []float64 // K(i,i); set by newKernelCache
	rows    map[int]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	maxRows int
}

type cacheEntry struct {
	idx        int
	row        []float64
	prev, next *cacheEntry
}

// newRowCache builds a cache for n-row problems with the given byte budget
// (at least two rows are always cached).
func newRowCache(n int, budgetBytes int, compute func(i int) []float64) *rowCache {
	maxRows := budgetBytes / (8 * n)
	if maxRows < 2 {
		maxRows = 2
	}
	if maxRows > n {
		maxRows = n
	}
	return &rowCache{compute: compute, rows: make(map[int]*cacheEntry, maxRows), maxRows: maxRows}
}

// newKernelCache is the kernel matrix of the rows x: the diagonal up
// front, row i -- K(x_i, x_t) for every t -- on demand. An RBF row is
// filled from a flat copy of x by SqDistsInto, four squared distances in
// flight, and then exp(-gamma*d2) per entry, which is RBF.Compute's
// arithmetic bit for bit: each distance sums the same squares in the
// same feature order, and (x_t-x_i)^2 is exactly (x_i-x_t)^2. (A NaN
// result may carry the other operand's payload when both are NaN; it
// is NaN either way.) Any other kernel fills a row by Compute per entry.
func newKernelCache(x [][]float64, kernel Kernel, budgetBytes int) *rowCache {
	fill := func(i int, row []float64) {
		xi := x[i]
		for t, xt := range x {
			row[t] = kernel.Compute(xi, xt)
		}
	}
	if rbf, ok := kernel.(RBF); ok && len(x) > 0 {
		flat := make([]float64, 0, len(x)*len(x[0]))
		for _, xt := range x {
			flat = append(flat, xt...)
		}
		fill = func(i int, row []float64) {
			SqDistsInto(flat, x[i], row)
			for t, d2 := range row {
				row[t] = math.Exp(-rbf.Gamma * d2)
			}
		}
	}
	c := newRowCache(len(x), budgetBytes, func(i int) []float64 {
		row := make([]float64, len(x))
		fill(i, row)
		return row
	})
	c.diag = make([]float64, len(x))
	for i, xi := range x {
		c.diag[i] = kernel.Compute(xi, xi)
	}
	return c
}

// SqDistsInto writes ||v_u - x||^2 for every row v_u of the row-major
// matrix rows (len(out) rows of len(x) values) into out: the sum the RBF
// kernel exponentiates, shared by the training kernel rows and the
// compiled SVM. A float64 sum over features is a serial add chain, so
// four rows run per trip: four independent chains for the FP ports to
// overlap, each still summing its own features first to last with the
// expression shape of RBF.Compute (acc += d*d). The trailing
// len(out) % 4 rows run one at a time.
func SqDistsInto(rows, x, out []float64) {
	nf := len(x)
	u, base := 0, 0
	for ; u+4 <= len(out); u, base = u+4, base+4*nf {
		s0 := rows[base : base+nf]
		s1 := rows[base+nf : base+2*nf]
		s2 := rows[base+2*nf : base+3*nf]
		s3 := rows[base+3*nf : base+4*nf]
		var a0, a1, a2, a3 float64
		for i, xi := range x {
			d0 := s0[i] - xi
			a0 += d0 * d0
			d1 := s1[i] - xi
			a1 += d1 * d1
			d2 := s2[i] - xi
			a2 += d2 * d2
			d3 := s3[i] - xi
			a3 += d3 * d3
		}
		out[u], out[u+1], out[u+2], out[u+3] = a0, a1, a2, a3
	}
	for ; u < len(out); u, base = u+1, base+nf {
		v := rows[base : base+nf]
		var a float64
		for i, xi := range x {
			d := v[i] - xi
			a += d * d
		}
		out[u] = a
	}
}

// get returns row i of the kernel matrix, computing and caching on miss.
func (c *rowCache) get(i int) []float64 {
	if e, ok := c.rows[i]; ok {
		c.touch(e)
		return e.row
	}
	e := &cacheEntry{idx: i, row: c.compute(i)}
	if len(c.rows) >= c.maxRows {
		c.evict()
	}
	c.rows[i] = e
	c.pushFront(e)
	return e.row
}

func (c *rowCache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *rowCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *rowCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *rowCache) evict() {
	if c.tail == nil {
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.rows, victim.idx)
}

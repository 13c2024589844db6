// Package svm implements a support vector machine classifier equivalent in
// algorithm family to the R e1071 / LIBSVM stack the paper used: a binary
// C-SVC solved by SMO with second-order working-set selection, the RBF
// kernel with an LRU row cache, one-vs-one multiclass decomposition,
// per-pair Platt sigmoid probability calibration (on cross-validated
// decision values), and Wu-Lin-Weng pairwise coupling for multiclass
// posterior probabilities. An epsilon-SVR regressor shares the
// SMO machinery for the application-kernel wall-time regression extension.
//
// Kernel rows are computed once per model where they can be. A pair's
// rows are its first class's rows, then its second's, so a pair row
// K(x_r, .) is two segments split at the class boundary: the
// within-class segment K(x_r, X_c), which every pair holding class c
// reads from one shared, mutex-guarded LRU (classRows), and the cross
// segment against the other class, which only this pair computes and
// its own rowCache keeps. The solver's row-reading loops run once per
// segment. That needs each index view of a pair to be ascending (the
// full problem's identity view and the Platt folds are), so a view
// crosses the class boundary once. The epsilon-SVR dual's view
// [0..n-1, 0..n-1] is not ascending, and its rows have no classes to
// share, so its cache keeps one segment. Every kernel value is computed
// with the same arithmetic wherever it is read from, so sharing and
// eviction change no trained bit.
package svm

import (
	"math"
	"sync"
)

// Kernel computes inner products in feature space. RBF is the one kernel
// a model saves and compiles; tests substitute fakes through Kernel.
type Kernel interface {
	// Compute returns K(a, b).
	Compute(a, b []float64) float64
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

// rowCache caches kernel matrix rows for the SMO solver with LRU eviction
// under a byte budget. It is not safe for concurrent use: one goroutine
// owns a cache, and every solve over the same rows (a pair's full problem
// and its Platt folds, the two halves of an SVR dual) reads the one cache
// through an index view, so a row is computed once while the budget lasts
// and recomputed on a miss when it does not. A row is two segments: lo
// holds its entries [0, split) and hi its entries [split, n) from
// hi[0]. A one-segment cache has split = n and an empty hi. An entry
// costs the bytes of both segments, including a pair row's within-class
// segment that classRows owns, so a pair's cache holds no more rows
// than a one-segment cache of the same budget.
type rowCache struct {
	compute func(i int) (lo, hi []float64)
	split   int
	diag    []float64 // K(i,i)
	rows    map[int]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	used    int         // bytes held
	budget  int
}

type cacheEntry struct {
	idx        int
	lo, hi     []float64
	prev, next *cacheEntry
}

// newRowCache builds a cache with the given byte budget; at least two
// rows are always cached.
func newRowCache(budgetBytes int, compute func(i int) (lo, hi []float64)) *rowCache {
	return &rowCache{compute: compute, rows: map[int]*cacheEntry{}, budget: budgetBytes}
}

// rowFiller returns the fill of kernel rows against the rows of x:
// fill(xi, out) writes K(xi, x_t) into out[t] for every t. An RBF row is
// filled from a flat copy of x by SqDistsInto, four squared distances in
// flight, and then exp(-gamma*d2) per entry, which is RBF.Compute's
// arithmetic bit for bit: each distance sums the same squares in the
// same feature order, and (x_t-xi)^2 is exactly (xi-x_t)^2. (A NaN
// result may carry the other operand's payload when both are NaN; it is
// NaN either way.) A test's fake kernel fills a row by Compute per entry.
// An entry's value does not depend on which other rows share its fill,
// so a pair row's segments equal the row filled over the whole pair.
func rowFiller(x [][]float64, kernel Kernel) func(xi, out []float64) {
	if rbf, ok := kernel.(RBF); ok && len(x) > 0 {
		flat := make([]float64, 0, len(x)*len(x[0]))
		for _, xt := range x {
			flat = append(flat, xt...)
		}
		return func(xi, out []float64) {
			SqDistsInto(flat, xi, out)
			for t, d2 := range out {
				out[t] = math.Exp(-rbf.Gamma * d2)
			}
		}
	}
	return func(xi, out []float64) {
		for t, xt := range x {
			out[t] = kernel.Compute(xi, xt)
		}
	}
}

// diagonal returns K(x_i, x_i) for every row.
func diagonal(x [][]float64, kernel Kernel) []float64 {
	d := make([]float64, len(x))
	for i, xi := range x {
		d[i] = kernel.Compute(xi, xi)
	}
	return d
}

// newKernelCache is the one-segment kernel matrix of the rows x: the
// diagonal up front, row i -- K(x_i, x_t) for every t -- on demand. The
// SVR dual reads it; Train's pairs read classRows.pairCache instead.
func newKernelCache(x [][]float64, kernel Kernel, budgetBytes int) *rowCache {
	fill := rowFiller(x, kernel)
	c := newRowCache(budgetBytes, func(i int) ([]float64, []float64) {
		row := make([]float64, len(x))
		fill(x[i], row)
		return row, nil
	})
	c.split = len(x)
	c.diag = diagonal(x, kernel)
	return c
}

// classRows is one model's within-class kernel rows, shared by every
// pair: the row of dataset row t is K(x_t, x_u) for every row u of t's
// class, in class order. It is computed on first use, kept in one LRU
// under a byte budget and recomputed on a miss. The mutex guards only
// the LRU; a row is filled outside it, so two pairs that miss the same
// row at once may both fill it, with equal values.
type classRows struct {
	mu      sync.Mutex
	cache   *rowCache
	x       [][]float64
	class   []int   // class of each dataset row
	byClass [][]int // dataset rows of each class, ascending
	fill    []func(xi, out []float64)
	diag    []float64 // K(x_t, x_t) per dataset row
}

// newClassRows is the class-row store of the rows x, labelled by class
// and grouped by byClass, under the given byte budget.
func newClassRows(x [][]float64, class []int, byClass [][]int, kernel Kernel, budgetBytes int) *classRows {
	s := &classRows{cache: newRowCache(budgetBytes, nil), x: x, class: class, byClass: byClass, diag: diagonal(x, kernel)}
	for _, rows := range byClass {
		xc := make([][]float64, len(rows))
		for u, t := range rows {
			xc[u] = x[t]
		}
		s.fill = append(s.fill, rowFiller(xc, kernel))
	}
	return s
}

// row returns the within-class row of dataset row t.
func (s *classRows) row(t int) []float64 {
	s.mu.Lock()
	e := s.cache.lookup(t)
	s.mu.Unlock()
	if e != nil {
		return e.lo
	}
	c := s.class[t]
	row := make([]float64, len(s.byClass[c]))
	s.fill[c](s.x[t], row)
	s.mu.Lock()
	if s.cache.lookup(t) == nil {
		s.cache.add(t, row, nil)
	}
	s.mu.Unlock()
	return row
}

// pairCache is the two-segment kernel matrix of pair (ci, cj): its rows
// are class ci's rows, then class cj's, as pairData orders them, split
// at ci's size. A miss fills the row's cross segment against the other
// class and takes its within-class segment from s.
func (s *classRows) pairCache(ci, cj, budgetBytes int) *rowCache {
	rowsI, rowsJ := s.byClass[ci], s.byClass[cj]
	split := len(rowsI)
	c := newRowCache(budgetBytes, func(r int) ([]float64, []float64) {
		if r < split {
			t := rowsI[r]
			cross := make([]float64, len(rowsJ))
			s.fill[cj](s.x[t], cross)
			return s.row(t), cross
		}
		t := rowsJ[r-split]
		cross := make([]float64, split)
		s.fill[ci](s.x[t], cross)
		return cross, s.row(t)
	})
	c.split = split
	c.diag = make([]float64, 0, split+len(rowsJ))
	for _, rows := range [2][]int{rowsI, rowsJ} {
		for _, t := range rows {
			c.diag = append(c.diag, s.diag[t])
		}
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

// get returns row i of the kernel matrix as its two segments, computing
// and caching on miss.
func (c *rowCache) get(i int) (lo, hi []float64) {
	if e := c.lookup(i); e != nil {
		return e.lo, e.hi
	}
	lo, hi = c.compute(i)
	c.add(i, lo, hi)
	return lo, hi
}

// at returns entry t of the row whose segments are lo and hi.
func (c *rowCache) at(lo, hi []float64, t int) float64 {
	if t < c.split {
		return lo[t]
	}
	return hi[t-c.split]
}

// cut returns how many entries of the view idx fall in the first
// segment. A view must hold its first-segment rows before its
// second-segment rows, as an ascending view does, so those are idx[:cut].
func (c *rowCache) cut(idx []int) int {
	s := 0
	for s < len(idx) && idx[s] < c.split {
		s++
	}
	for _, i := range idx[s:] {
		if i < c.split {
			panic("svm: index view crosses a row's segment boundary twice")
		}
	}
	return s
}

// lookup returns the cached entry of row i, marking it most recently
// used, or nil.
func (c *rowCache) lookup(i int) *cacheEntry {
	e, ok := c.rows[i]
	if !ok {
		return nil
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e
}

// add caches row i, first evicting least recently used rows while the
// budget would be exceeded and two rows remain.
func (c *rowCache) add(i int, lo, hi []float64) {
	size := 8 * (len(lo) + len(hi))
	for len(c.rows) >= 2 && c.used+size > c.budget {
		c.evict()
	}
	e := &cacheEntry{idx: i, lo: lo, hi: hi}
	c.rows[i] = e
	c.used += size
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
	victim := c.tail
	c.unlink(victim)
	delete(c.rows, victim.idx)
	c.used -= 8 * (len(victim.lo) + len(victim.hi))
}

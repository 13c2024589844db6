package svm

import "math"

const (
	// tau is the numerical floor for second-derivative terms, as in LIBSVM.
	tau = 1e-12
	// smoTol is the KKT stopping tolerance.
	smoTol = 1e-3
	// smoCacheBytes is the kernel row cache budget of one pair problem
	// (or one SVR problem): every solve over those rows shares it.
	smoCacheBytes = 64 << 20
)

// smoProblem is one binary C-SVC training problem over an index view of
// a kernel cache: variable t stands on row idx[t] of k, so problems over
// the same rows share their kernel values without gathering them. The
// variables before bound[1] stand on rows in k's first segment, the rest
// on rows in its second, so each loop over a kernel row runs once per
// segment, in variable order, reading entry col[t] of that segment. Box
// constraints are per-sample (cvec), which is how per-class cost
// weighting -- the paper's suggested remedy for mixture-share-driven
// misclassification -- is realized: C_i = C * weight[class(i)].
type smoProblem struct {
	k     *rowCache
	idx   []int
	bound [3]int    // variables [bound[s], bound[s+1]) read segment s of a row
	col   []int     // where variable t's entry sits in its segment
	qd    []float64 // K(x_idx[t], x_idx[t]) by variable
	y     []float64 // +1 / -1, by variable
	cvec  []float64 // per-variable upper bound C_i
	maxIt int
}

// smoResult is the solved dual.
type smoResult struct {
	alpha []float64
	rho   float64
	iters int
}

// uniformC builds a constant box-constraint vector.
func uniformC(n int, c float64) []float64 {
	cv := make([]float64, n)
	for i := range cv {
		cv[i] = c
	}
	return cv
}

// identity is the view of every row in order.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// solveSMOGeneral minimizes (1/2) a'Qa + p'a subject to 0 <= a <= C_i,
// y'a = 0, with Q_st = y_s y_t K(x_idx[s], x_idx[t]) read from k, using
// maximal-violating-pair selection with LIBSVM's second-order refinement
// for the second index. A nil p0 means the C-SVC linear term -e;
// maxIt <= 0 scales the iteration cap with the problem size.
func solveSMOGeneral(k *rowCache, idx []int, y, p0, cvec []float64, maxIt int) smoResult {
	n := len(idx)
	cut := k.cut(idx)
	p := &smoProblem{k: k, idx: idx, bound: [3]int{0, cut, n}, col: make([]int, n), qd: make([]float64, n),
		y: y, cvec: cvec, maxIt: maxIt}
	for t, r := range idx {
		p.col[t], p.qd[t] = r, k.diag[r]
		if t >= cut {
			p.col[t] -= k.split
		}
	}
	if p.maxIt <= 0 {
		p.maxIt = 10_000_000 / (n + 1) * 10 // generous; scaled by size
		if p.maxIt < 10000 {
			p.maxIt = 10000
		}
	}

	alpha := make([]float64, n)
	grad := make([]float64, n) // G_i = sum_j Q_ij a_j + p_i
	for i := range grad {
		if p0 != nil {
			grad[i] = p0[i]
		} else {
			grad[i] = -1
		}
	}

	iters := 0
	for ; iters < p.maxIt; iters++ {
		i, j, gap := p.selectWorkingSet(alpha, grad)
		if j < 0 || gap < smoTol {
			break
		}
		p.update(alpha, grad, i, j)
	}
	return smoResult{alpha: alpha, rho: p.computeRho(alpha, grad), iters: iters}
}

// selectWorkingSet returns the maximal violating pair (i, j) and the KKT
// gap m(a) - M(a); j is chosen by the second-order rule.
func (p *smoProblem) selectWorkingSet(alpha, grad []float64) (int, int, float64) {
	n := len(alpha)
	gmax := math.Inf(-1)
	gmin := math.Inf(1)
	i := -1
	for t := 0; t < n; t++ {
		if p.inUp(t, alpha) {
			if v := -p.y[t] * grad[t]; v > gmax {
				gmax = v
				i = t
			}
		}
	}
	if i < 0 {
		return -1, -1, 0
	}
	lo, hi := p.k.get(p.idx[i])
	qd, col, diagI := p.qd, p.col, p.qd[i]
	j := -1
	best := math.Inf(1) // most negative objective decrease
	for s, rowI := range [2][]float64{lo, hi} {
		for t, end := p.bound[s], p.bound[s+1]; t < end; t++ {
			if !p.inLow(t, alpha) {
				continue
			}
			v := -p.y[t] * grad[t]
			if v < gmin {
				gmin = v
			}
			b := gmax - v
			if b <= 0 {
				continue
			}
			// Second derivative along the feasible pair direction is
			// ||phi(x_i) - phi(x_t)||^2 regardless of label signs.
			a := diagI + qd[t] - 2*rowI[col[t]]
			if a <= 0 {
				a = tau
			}
			if obj := -(b * b) / a; obj < best {
				best = obj
				j = t
			}
		}
	}
	return i, j, gmax - gmin
}

func (p *smoProblem) inUp(t int, alpha []float64) bool {
	if p.y[t] > 0 {
		return alpha[t] < p.cvec[t]
	}
	return alpha[t] > 0
}

func (p *smoProblem) inLow(t int, alpha []float64) bool {
	if p.y[t] > 0 {
		return alpha[t] > 0
	}
	return alpha[t] < p.cvec[t]
}

// update optimizes the (i, j) pair analytically and refreshes the gradient.
func (p *smoProblem) update(alpha, grad []float64, i, j int) {
	idx := p.idx
	loI, hiI := p.k.get(idx[i])
	loJ, hiJ := p.k.get(idx[j])
	yi, yj := p.y[i], p.y[j]

	a := p.qd[i] + p.qd[j] - 2*p.k.at(loI, hiI, idx[j])
	if a <= 0 {
		a = tau
	}
	b := -yi*grad[i] + yj*grad[j]

	oldAi, oldAj := alpha[i], alpha[j]
	alpha[i] += yi * b / a
	alpha[j] -= yj * b / a

	// Project back to the feasible box preserving y_i a_i + y_j a_j.
	sum := yi*oldAi + yj*oldAj
	alpha[i] = clamp(alpha[i], 0, p.cvec[i])
	alpha[j] = yj * (sum - yi*alpha[i])
	alpha[j] = clamp(alpha[j], 0, p.cvec[j])
	alpha[i] = yi * (sum - yj*alpha[j])
	alpha[i] = clamp(alpha[i], 0, p.cvec[i])

	dAi, dAj := alpha[i]-oldAi, alpha[j]-oldAj
	if dAi == 0 && dAj == 0 {
		return
	}
	for s, rowI := range [2][]float64{loI, hiI} {
		rowJ := [2][]float64{loJ, hiJ}[s]
		from, to := p.bound[s], p.bound[s+1]
		y, g := p.y[from:to], grad[from:to]
		for u, c := range p.col[from:to] {
			g[u] += y[u] * (yi*rowI[c]*dAi + yj*rowJ[c]*dAj)
		}
	}
}

// computeRho recovers the threshold from the KKT conditions: the average
// of y_t G_t over free vectors, or the midpoint of the bound-derived range.
func (p *smoProblem) computeRho(alpha, grad []float64) float64 {
	var sum float64
	nFree := 0
	ub, lb := math.Inf(1), math.Inf(-1)
	for t := range alpha {
		yg := p.y[t] * grad[t]
		switch {
		case alpha[t] > 0 && alpha[t] < p.cvec[t]:
			sum += yg
			nFree++
		case p.inUp(t, alpha):
			if -yg > lb {
				lb = -yg
			}
		default:
			if -yg < ub {
				ub = -yg
			}
		}
	}
	if nFree > 0 {
		return sum / float64(nFree)
	}
	return -(ub + lb) / 2
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// decision returns sum_i coef_i K(sv_i, x) - rho; positive means class +1.
func (p *PairSpec) decision(kernel Kernel, x []float64) float64 {
	var s float64
	for i, sv := range p.SV {
		s += p.Coef[i] * kernel.Compute(sv, x)
	}
	return s - p.Rho
}

// decisions writes into dec[i], for every row i in the ascending list
// at, the decision value of the machine res solved over the view idx of
// k -- from the cached support-vector rows, accumulated in
// support-vector order and then shifted by rho, which is decision's
// operation sequence on the compacted machine, bit for bit.
func decisions(k *rowCache, idx []int, y []float64, res smoResult, at []int, dec []float64) {
	for _, i := range at {
		dec[i] = 0
	}
	cut := k.cut(at)
	atLo, atHi := at[:cut], at[cut:]
	for t, a := range res.alpha {
		if a > 0 {
			coef := a * y[t]
			lo, hi := k.get(idx[t])
			for _, i := range atLo {
				dec[i] += coef * lo[i]
			}
			for _, i := range atHi {
				dec[i] += coef * hi[i-k.split]
			}
		}
	}
	for _, i := range at {
		dec[i] -= res.rho
	}
}

// newPair compacts an SMO solution into the SV representation of one
// binary machine; the caller names its classes.
func newPair(x [][]float64, y []float64, res smoResult) PairSpec {
	p := PairSpec{Rho: res.rho}
	for i, a := range res.alpha {
		if a > 0 {
			p.SV = append(p.SV, x[i])
			p.Coef = append(p.Coef, a*y[i])
		}
	}
	return p
}

package compile

import (
	"fmt"
	"math"

	"repro/internal/ml/svm"
)

// kernelKind selects the inlined kernel evaluation. Only the three
// persistable kernels compile; an unknown kernel keeps the model on the
// interpreted path.
type kernelKind uint8

const (
	kernelRBF kernelKind = iota
	kernelLinear
	kernelPoly
)

// svmPair is one compiled one-vs-one machine: a window into the shared
// (id, coefficient) arrays plus the decision threshold and Platt
// sigmoid.
type svmPair struct {
	svOff, svNum int // entries [svOff, svOff+svNum) in svID/coef
	rho          float64
	a, b         float64
	hasAB        bool
	i, j         int // class indices; positive decision votes for i
	ai, aj       int // the same classes in active-space (coupling matrix row/col)
}

// SVM is a compiled one-vs-one multiclass SVM. Support vectors are
// deduplicated across pairs into one contiguous row-major matrix: a
// training row that serves as a support vector in several pairs (common
// in one-vs-one, where each row can appear in k-1 machines) has its
// kernel value computed once per classified row and reused by every
// pair that references it. Each pair keeps its own (id, coefficient)
// window in the original support-vector order, so its decision sum
// accumulates the exact same float64 values in the exact same order as
// the interpreted machine — bit parity holds while the dominant kernel
// work drops by the duplication factor.
type SVM struct {
	classes  []string
	features int
	kind     kernelKind
	gamma    float64
	coef0    float64
	degree   int
	pairs    []svmPair
	uniq     []float64 // [numUniq * features] row-major unique support vectors
	numUniq  int
	svID     []int32   // per-pair support-vector ids into uniq (concatenated windows)
	coef     []float64 // per-pair coefficients, aligned with svID
	active   []int     // ascending class indices that trained in >=1 pair
}

// CompileSVM lowers an SVM spec, validating matrix shapes and class
// indices up front.
func CompileSVM(spec *svm.Spec) (*SVM, error) {
	k := len(spec.Classes)
	if k == 0 {
		return nil, fmt.Errorf("compile: svm has no classes")
	}
	if spec.Features <= 0 {
		return nil, fmt.Errorf("compile: svm reports %d features", spec.Features)
	}
	m := &SVM{classes: spec.Classes, features: spec.Features}
	switch kk := spec.Kernel.(type) {
	case svm.RBF:
		m.kind, m.gamma = kernelRBF, kk.Gamma
	case svm.Linear:
		m.kind = kernelLinear
	case svm.Poly:
		m.kind, m.gamma, m.coef0, m.degree = kernelPoly, kk.Gamma, kk.Coef0, kk.Degree
	default:
		return nil, fmt.Errorf("compile: svm kernel %T has no compiled form", spec.Kernel)
	}

	totalSV := 0
	for pi, p := range spec.Pairs {
		if p.I < 0 || p.I >= k || p.J < 0 || p.J >= k {
			return nil, fmt.Errorf("compile: pair %d classes (%d, %d) outside vocabulary of %d", pi, p.I, p.J, k)
		}
		if len(p.SV) != len(p.Coef) {
			return nil, fmt.Errorf("compile: pair %d has %d support vectors but %d coefficients", pi, len(p.SV), len(p.Coef))
		}
		for _, sv := range p.SV {
			if len(sv) != spec.Features {
				return nil, fmt.Errorf("compile: pair %d support vector has %d features, model has %d", pi, len(sv), spec.Features)
			}
		}
		totalSV += len(p.SV)
	}

	m.svID = make([]int32, 0, totalSV)
	m.coef = make([]float64, 0, totalSV)
	m.pairs = make([]svmPair, 0, len(spec.Pairs))
	seen := make([]bool, k)
	// Deduplicate support vectors by exact bit content. Equal-valued rows
	// map to one kernel evaluation; since K(sv, x) is a pure function of
	// the support vector's bits, sharing it is invisible to the result.
	uid := make(map[string]int32)
	key := make([]byte, 0, spec.Features*8)
	off := 0
	for _, p := range spec.Pairs {
		for _, sv := range p.SV {
			key = key[:0]
			for _, v := range sv {
				bits := math.Float64bits(v)
				key = append(key, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
					byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
			}
			id, ok := uid[string(key)]
			if !ok {
				id = int32(len(uid))
				uid[string(key)] = id
				m.uniq = append(m.uniq, sv...)
			}
			m.svID = append(m.svID, id)
		}
		m.coef = append(m.coef, p.Coef...)
		m.pairs = append(m.pairs, svmPair{
			svOff: off, svNum: len(p.SV),
			rho: p.Rho, a: p.A, b: p.B, hasAB: p.HasAB,
			i: p.I, j: p.J,
		})
		off += len(p.SV)
		seen[p.I], seen[p.J] = true, true
	}
	m.numUniq = len(uid)
	// The coupling problem's class set is a pure function of the pair
	// structure, so the active list and every pair's position in it are
	// resolved once here instead of per request. The scan order matches
	// the interpreted PredictProb exactly (ascending class index).
	activeAt := make([]int, k)
	for c, ok := range seen {
		if ok {
			activeAt[c] = len(m.active)
			m.active = append(m.active, c)
		}
	}
	for pi := range m.pairs {
		m.pairs[pi].ai = activeAt[m.pairs[pi].i]
		m.pairs[pi].aj = activeAt[m.pairs[pi].j]
	}
	return m, nil
}

// Classes returns the class vocabulary.
func (m *SVM) Classes() []string { return m.classes }

// Fits reports whether p is the support vectors' width.
func (m *SVM) Fits(p int) bool { return m.features == p }

// NewScratch allocates a scratch sized for this model.
func (m *SVM) NewScratch() *Scratch {
	k := len(m.classes)
	ka := len(m.active)
	return &Scratch{
		votes: make([]int, k),
		probs: make([]float64, k),
		sub:   make([]float64, ka*ka),
		p:     make([]float64, ka),
		q:     make([]float64, ka*ka),
		qp:    make([]float64, ka),
		kv:    make([]float64, m.numUniq),
	}
}

// kernelInto evaluates K(sv, x) for every unique support vector into
// kv. The kernel arithmetic matches the interpreted Kernel.Eval exactly
// (same expressions, same accumulation order over features); evaluating
// each unique vector once instead of once per pair is pure reuse of an
// identical float64.
func (m *SVM) kernelInto(x []float64, kv []float64) {
	nf := m.features
	base := 0
	switch m.kind {
	case kernelRBF:
		for u := range kv {
			sv := m.uniq[base : base+nf : base+nf]
			base += nf
			var d2 float64
			for i, v := range sv {
				d := v - x[i]
				d2 += d * d
			}
			kv[u] = math.Exp(-m.gamma * d2)
		}
	case kernelLinear:
		for u := range kv {
			sv := m.uniq[base : base+nf : base+nf]
			base += nf
			var dot float64
			for i, v := range sv {
				dot += v * x[i]
			}
			kv[u] = dot
		}
	case kernelPoly:
		for u := range kv {
			sv := m.uniq[base : base+nf : base+nf]
			base += nf
			var dot float64
			for i, v := range sv {
				dot += v * x[i]
			}
			kv[u] = math.Pow(m.gamma*dot+m.coef0, float64(m.degree))
		}
	}
}

// decision evaluates one pair machine, sum_t coef_t K(sv_t, x) - rho,
// from the precomputed kernel values. The accumulation order matches
// the interpreted binaryMachine.decision exactly.
func (m *SVM) decision(p *svmPair, kv []float64) float64 {
	var s float64
	for t := p.svOff; t < p.svOff+p.svNum; t++ {
		s += m.coef[t] * kv[m.svID[t]]
	}
	return s - p.rho
}

// pairProb is the calibrated P(y=+1 | decision value f), identical to
// the interpreted binaryMachine.prob.
func (p *svmPair) pairProb(f float64) float64 {
	if !p.hasAB {
		return 1 / (1 + math.Exp(-2*f))
	}
	fApB := p.a*f + p.b
	if fApB >= 0 {
		return math.Exp(-fApB) / (1 + math.Exp(-fApB))
	}
	return 1 / (1 + math.Exp(fApB))
}

func clampProb(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Predict returns the one-vs-one voting winner, bit-identical to the
// interpreted Model.Predict (ties break toward the lower class index).
func (m *SVM) Predict(row []float64, s *Scratch) int {
	m.kernelInto(row, s.kv)
	votes := s.votes
	for i := range votes {
		votes[i] = 0
	}
	for pi := range m.pairs {
		p := &m.pairs[pi]
		if m.decision(p, s.kv) > 0 {
			votes[p.i]++
		} else {
			votes[p.j]++
		}
	}
	best := 0
	for c := 1; c < len(votes); c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// PredictProb returns the coupled posterior, bit-identical to the
// interpreted Model.PredictProb: per-pair Platt probabilities are
// clipped and coupled with the Wu-Lin-Weng fixed point over the active
// classes, in the same operation order, but entirely inside the
// scratch. The returned slice aliases scratch memory.
func (m *SVM) PredictProb(row []float64, s *Scratch) (int, []float64) {
	ka := len(m.active)
	probs := s.probs
	for i := range probs {
		probs[i] = 0
	}
	if ka == 0 {
		return 0, probs
	}
	// Fill the pairwise matrix directly in active-class space. The
	// interpreted path routes the same values through a full k x k
	// matrix first; entries no pair writes stay zero there, so the
	// scratch matrix is zeroed to match.
	m.kernelInto(row, s.kv)
	sub := s.sub
	for i := range sub {
		sub[i] = 0
	}
	for pi := range m.pairs {
		p := &m.pairs[pi]
		pr := clampProb(p.pairProb(m.decision(p, s.kv)), 1e-7, 1-1e-7)
		sub[p.ai*ka+p.aj] = pr
		sub[p.aj*ka+p.ai] = 1 - pr
	}
	coupleInto(sub, ka, s.p, s.q, s.qp)
	best := m.active[0]
	bestP := -1.0
	for a, ca := range m.active {
		probs[ca] = s.p[a]
		if s.p[a] > bestP {
			bestP = s.p[a]
			best = ca
		}
	}
	return best, probs
}

// coupleInto is the Wu-Lin-Weng (2004) pairwise-coupling fixed point on
// a flattened k x k matrix r, writing the posterior into p using q and
// qp as work areas. Operation for operation this is the interpreted
// coupleProbabilities with the allocations hoisted into the scratch.
func coupleInto(r []float64, k int, p, q, qp []float64) {
	if k == 1 {
		p[0] = 1
		return
	}
	for i := range q {
		q[i] = 0
	}
	for t := 0; t < k; t++ {
		p[t] = 1 / float64(k)
		for j := 0; j < k; j++ {
			if j == t {
				continue
			}
			q[t*k+t] += r[j*k+t] * r[j*k+t]
			q[t*k+j] = -r[j*k+t] * r[t*k+j]
		}
	}
	const maxIter = 100
	eps := 0.005 / float64(k)
	for iter := 0; iter < maxIter*k; iter++ {
		pQp := 0.0
		for t := 0; t < k; t++ {
			qp[t] = 0
			for j := 0; j < k; j++ {
				qp[t] += q[t*k+j] * p[j]
			}
			pQp += p[t] * qp[t]
		}
		maxErr := 0.0
		for t := 0; t < k; t++ {
			if e := math.Abs(qp[t] - pQp); e > maxErr {
				maxErr = e
			}
		}
		if maxErr < eps {
			break
		}
		for t := 0; t < k; t++ {
			diff := (-qp[t] + pQp) / q[t*k+t]
			p[t] += diff
			pQp = (pQp + diff*(diff*q[t*k+t]+2*qp[t])) / ((1 + diff) * (1 + diff))
			for j := 0; j < k; j++ {
				qp[j] = (qp[j] + diff*q[t*k+j]) / (1 + diff)
				p[j] /= 1 + diff
			}
		}
	}
}

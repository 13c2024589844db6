package compile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml/svm"
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
// window in the original support-vector order; the pairs themselves are
// stored longest window first (a stable sort), which no posterior can
// see, because votes and the coupling matrix are indexed by class.
//
// Scoring a row is two batches of float64 sums, one per unique vector
// over the features (the RBF kernel's squared distance) and one per pair
// over its window, and each sum is a chain of dependent adds that leaves
// the FP ports mostly idle when run alone. Sums are independent of each
// other, so both batches advance four at a time (svm.SqDistsInto,
// decisions); sorted by length, the four pairs in a group share most of
// their windows. PredictProbBlock overlaps the same sums across a block
// of rows instead: each support vector and each pair window is read once
// for BlockRows rows. Overlap changes when an add issues, never what it
// adds: each sum accumulates the exact same float64 values in the exact
// same order as the interpreted machine, with the same expression shapes
// (acc += d*d, s += c*kv), so an architecture that fuses multiply-adds
// fuses both engines alike. Bit parity holds while the kernel work drops
// by the duplication factor and the chains overlap.
type SVM struct {
	classes  []string
	features int
	gamma    float64
	pairs    []svmPair
	uniq     []float64 // [numUniq * features] row-major unique support vectors
	numUniq  int
	svID     []int32   // per-pair support-vector ids into uniq (concatenated windows)
	coef     []float64 // per-pair coefficients, aligned with svID
	active   []int     // ascending class indices that trained in >=1 pair
}

// CompileSVM lowers an SVM spec, validating up front matrix shapes,
// class indices, that each pair separates two distinct classes no other
// pair separates (a repeated pair would make the coupling matrix
// depend on which copy writes last), and what keeps a posterior a
// number: at least one pair machine, an RBF kernel with a finite
// positive gamma, and finite support-vector values, coefficients,
// thresholds and (when calibrated) Platt parameters.
func CompileSVM(spec *svm.Spec) (*SVM, error) {
	k := len(spec.Classes)
	if k == 0 {
		return nil, fmt.Errorf("compile: svm has no classes")
	}
	if spec.Features <= 0 {
		return nil, fmt.Errorf("compile: svm reports %d features", spec.Features)
	}
	if len(spec.Pairs) == 0 {
		return nil, fmt.Errorf("compile: svm has no pair machines")
	}
	if spec.Kernel.Name != "rbf" {
		return nil, fmt.Errorf("compile: svm kernel %q has no compiled form", spec.Kernel.Name)
	}
	// gamma <= 0 turns exp(-gamma*d2) into a constant or an overflow:
	// every row would get the same posterior.
	if g := spec.Kernel.Gamma; !finite(g) || g <= 0 {
		return nil, fmt.Errorf("compile: svm kernel has Gamma %v, want finite and positive", g)
	}
	m := &SVM{classes: spec.Classes, features: spec.Features, gamma: spec.Kernel.Gamma}

	totalSV := 0
	pairAt := make(map[[2]int]int, len(spec.Pairs))
	for pi, p := range spec.Pairs {
		if p.I < 0 || p.I >= k || p.J < 0 || p.J >= k {
			return nil, fmt.Errorf("compile: pair %d classes (%d, %d) outside vocabulary of %d", pi, p.I, p.J, k)
		}
		if p.I == p.J {
			return nil, fmt.Errorf("compile: pair %d sets class %d against itself", pi, p.I)
		}
		key := [2]int{min(p.I, p.J), max(p.I, p.J)}
		if first, dup := pairAt[key]; dup {
			return nil, fmt.Errorf("compile: pairs %d and %d both separate classes %d and %d", first, pi, key[0], key[1])
		}
		pairAt[key] = pi
		if len(p.SV) != len(p.Coef) {
			return nil, fmt.Errorf("compile: pair %d has %d support vectors but %d coefficients", pi, len(p.SV), len(p.Coef))
		}
		for si, sv := range p.SV {
			if len(sv) != spec.Features {
				return nil, fmt.Errorf("compile: pair %d support vector has %d features, model has %d", pi, len(sv), spec.Features)
			}
			for f, v := range sv {
				if !finite(v) {
					return nil, fmt.Errorf("compile: pair %d support vector %d feature %d is %v, want finite", pi, si, f, v)
				}
			}
			if !finite(p.Coef[si]) {
				return nil, fmt.Errorf("compile: pair %d Coef[%d] is %v, want finite", pi, si, p.Coef[si])
			}
		}
		if !finite(p.Rho) {
			return nil, fmt.Errorf("compile: pair %d Rho is %v, want finite", pi, p.Rho)
		}
		if p.HasAB && (!finite(p.A) || !finite(p.B)) {
			return nil, fmt.Errorf("compile: pair %d Platt A %v, B %v, want finite", pi, p.A, p.B)
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
	order := make([]int, len(spec.Pairs))
	for pi := range order {
		order[pi] = pi
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(spec.Pairs[order[a]].SV) > len(spec.Pairs[order[b]].SV)
	})
	for _, pi := range order {
		p := &spec.Pairs[pi]
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
		dec:   make([]float64, len(m.pairs)),
	}
}

// kernelInto evaluates K(sv, x) for every unique support vector into
// kv. The kernel arithmetic matches the interpreted RBF.Compute
// exactly (same expressions, same accumulation order over features);
// evaluating each unique vector once instead of once per pair is pure
// reuse of an identical float64. The squared distances land in kv first
// and exp(-gamma*d2) runs over kv in place.
func (m *SVM) kernelInto(x []float64, kv []float64) {
	svm.SqDistsInto(m.uniq, x[:m.features], kv)
	for u, d2 := range kv {
		kv[u] = math.Exp(-m.gamma * d2)
	}
}

// decisions evaluates every pair machine, sum_t coef_t K(sv_t, x) - rho,
// from the precomputed kernel values into dec. Like the feature sums,
// each pair's sum is a serial add chain, so four pairs advance together
// over their common length and each finishes its own remainder; every
// pair still accumulates in its own support-vector order, the order of
// the interpreted PairSpec.decision.
func (m *SVM) decisions(kv, dec []float64) {
	pairs := m.pairs
	pi := 0
	for ; pi+4 <= len(pairs); pi += 4 {
		p0, p1, p2, p3 := &pairs[pi], &pairs[pi+1], &pairs[pi+2], &pairs[pi+3]
		n := min(p0.svNum, p1.svNum, p2.svNum, p3.svNum)
		c0, id0 := m.coef[p0.svOff:p0.svOff+n], m.svID[p0.svOff:p0.svOff+n]
		c1, id1 := m.coef[p1.svOff:p1.svOff+n], m.svID[p1.svOff:p1.svOff+n]
		c2, id2 := m.coef[p2.svOff:p2.svOff+n], m.svID[p2.svOff:p2.svOff+n]
		c3, id3 := m.coef[p3.svOff:p3.svOff+n], m.svID[p3.svOff:p3.svOff+n]
		var s0, s1, s2, s3 float64
		for t := 0; t < n; t++ {
			s0 += c0[t] * kv[id0[t]]
			s1 += c1[t] * kv[id1[t]]
			s2 += c2[t] * kv[id2[t]]
			s3 += c3[t] * kv[id3[t]]
		}
		dec[pi] = m.decisionFrom(p0, n, s0, kv)
		dec[pi+1] = m.decisionFrom(p1, n, s1, kv)
		dec[pi+2] = m.decisionFrom(p2, n, s2, kv)
		dec[pi+3] = m.decisionFrom(p3, n, s3, kv)
	}
	for ; pi < len(pairs); pi++ {
		dec[pi] = m.decisionFrom(&pairs[pi], 0, 0, kv)
	}
}

// decisionFrom finishes one pair machine whose first n terms already
// sum to s.
func (m *SVM) decisionFrom(p *svmPair, n int, s float64, kv []float64) float64 {
	for t := p.svOff + n; t < p.svOff+p.svNum; t++ {
		s += m.coef[t] * kv[m.svID[t]]
	}
	return s - p.rho
}

// Predict returns the one-vs-one voting winner, bit-identical to the
// interpreted Model.Predict (ties break toward the lower class index).
func (m *SVM) Predict(row []float64, s *Scratch) int {
	m.kernelInto(row, s.kv)
	m.decisions(s.kv, s.dec)
	votes := s.votes
	for i := range votes {
		votes[i] = 0
	}
	for pi := range m.pairs {
		p := &m.pairs[pi]
		if s.dec[pi] > 0 {
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
// interpreted Model.PredictProb: both fill the active-class matrix with
// svm.PairProb and end in svm.Couple, here entirely inside the scratch.
// The returned slice aliases scratch memory.
func (m *SVM) PredictProb(row []float64, s *Scratch) (int, []float64) {
	m.kernelInto(row, s.kv)
	m.decisions(s.kv, s.dec)
	// Entries no pair writes stay zero, as in the interpreted matrix.
	ka := len(m.active)
	sub := s.sub
	clear(sub)
	for pi := range m.pairs {
		p := &m.pairs[pi]
		pr := svm.PairProb(s.dec[pi], p.a, p.b, p.hasAB)
		sub[p.ai*ka+p.aj] = pr
		sub[p.aj*ka+p.ai] = 1 - pr
	}
	return svm.Couple(sub, m.active, s.probs, s.p, s.q, s.qp), s.probs
}

// BlockRows is how many rows PredictProbBlock scores per pass over the
// model.
const BlockRows = 4

// BlockScratch is PredictProbBlock's working memory: the block's kernel
// values and decisions, row-interleaved, one posterior buffer per row,
// and the coupling buffers of a per-row scratch, which the rows use in
// turn. Like a Scratch it serves any number of sequential blocks and
// must not be shared by concurrent calls.
type BlockScratch struct {
	row   *Scratch
	kv    []float64 // unique vector u, row r at u*BlockRows+r
	dec   []float64 // pair machine p, row r at p*BlockRows+r
	probs [BlockRows][]float64
}

// NewBlockScratch allocates a block scratch sized for this model.
func (m *SVM) NewBlockScratch() *BlockScratch {
	s := &BlockScratch{
		row: m.NewScratch(),
		kv:  make([]float64, m.numUniq*BlockRows),
		dec: make([]float64, len(m.pairs)*BlockRows),
	}
	for r := range s.probs {
		s.probs[r] = make([]float64, len(m.classes))
	}
	return s
}

// PredictProbBlock scores rows[0:BlockRows] in one pass over the model
// and returns each row's winning class and posterior, Float64bits-equal
// to PredictProb on that row alone. The posteriors alias the scratch.
func (m *SVM) PredictProbBlock(rows [][]float64, s *BlockScratch) (cls [BlockRows]int, probs [BlockRows][]float64) {
	m.kernelBlock(rows[:BlockRows], s.kv)
	m.decisionsBlock(s.kv, s.dec)
	ka := len(m.active)
	sub := s.row.sub
	for r := range cls {
		clear(sub)
		for pi := range m.pairs {
			p := &m.pairs[pi]
			pr := svm.PairProb(s.dec[pi*BlockRows+r], p.a, p.b, p.hasAB)
			sub[p.ai*ka+p.aj] = pr
			sub[p.aj*ka+p.ai] = 1 - pr
		}
		cls[r] = svm.Couple(sub, m.active, s.probs[r], s.row.p, s.row.q, s.row.qp)
	}
	return cls, s.probs
}

// kernelBlock is kernelInto for a block of rows: two support vectors
// meet four rows per pass over the features, eight independent
// distance sums, each the feature-ordered (sv - x)² chain
// svm.SqDistsInto adds for that vector and row; an odd last vector
// meets the four rows alone. kv is row-interleaved.
func (m *SVM) kernelBlock(rows [][]float64, kv []float64) {
	nf := m.features
	x0, x1, x2, x3 := rows[0][:nf], rows[1][:nf], rows[2][:nf], rows[3][:nf]
	u, base := 0, 0
	for ; u+2 <= m.numUniq; u, base = u+2, base+2*nf {
		s0, s1 := m.uniq[base:][:nf], m.uniq[base+nf:][:nf]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for i := range nf {
			// One row value live at a time keeps the eight sums and
			// both vectors' values in registers.
			v, w := s0[i], s1[i]
			x := x0[i]
			d, e := v-x, w-x
			a0 += d * d
			b0 += e * e
			x = x1[i]
			d, e = v-x, w-x
			a1 += d * d
			b1 += e * e
			x = x2[i]
			d, e = v-x, w-x
			a2 += d * d
			b2 += e * e
			x = x3[i]
			d, e = v-x, w-x
			a3 += d * d
			b3 += e * e
		}
		k := kv[u*BlockRows : u*BlockRows+2*BlockRows]
		k[0], k[1], k[2], k[3] = a0, a1, a2, a3
		k[4], k[5], k[6], k[7] = b0, b1, b2, b3
	}
	if u < m.numUniq {
		s0 := m.uniq[base : base+nf]
		var a0, a1, a2, a3 float64
		for i, v := range s0 {
			d0, d1, d2, d3 := v-x0[i], v-x1[i], v-x2[i], v-x3[i]
			a0 += d0 * d0
			a1 += d1 * d1
			a2 += d2 * d2
			a3 += d3 * d3
		}
		k := kv[u*BlockRows : u*BlockRows+BlockRows]
		k[0], k[1], k[2], k[3] = a0, a1, a2, a3
	}
	for i, d2 := range kv {
		kv[i] = math.Exp(-m.gamma * d2)
	}
}

// decisionsBlock is decisions for a block of rows: one pass over each
// pair's window sums its four rows' decisions side by side, each in
// support-vector order.
func (m *SVM) decisionsBlock(kv, dec []float64) {
	for pi := range m.pairs {
		p := &m.pairs[pi]
		ids, cs := m.svID[p.svOff:p.svOff+p.svNum], m.coef[p.svOff:p.svOff+p.svNum]
		var s0, s1, s2, s3 float64
		for t, id := range ids {
			c, k := cs[t], kv[int(id)*BlockRows:int(id)*BlockRows+BlockRows]
			s0 += c * k[0]
			s1 += c * k[1]
			s2 += c * k[2]
			s3 += c * k[3]
		}
		d := dec[pi*BlockRows : pi*BlockRows+BlockRows]
		d[0], d[1], d[2], d[3] = s0-p.rho, s1-p.rho, s2-p.rho, s3-p.rho
	}
}

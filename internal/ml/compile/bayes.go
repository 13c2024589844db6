package compile

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ml/bayes"
)

// Bayes is a compiled Gaussian Naive Bayes model. The per-class
// Gaussian parameters are lowered into flat row-major lookup tables
// with the constant subexpressions — -0.5*log(2*pi*var) and 2*var —
// evaluated once at compile time, so the predict path performs no
// math.Log calls at all. Precomputing a constant subexpression yields
// the identical float64 the interpreted path computes inline, so
// likelihoods stay bit-identical.
type Bayes struct {
	classes  []string
	p        int       // features
	priors   []float64 // log priors, len k
	means    []float64 // [k*p] row-major
	twoVars  []float64 // [k*p] 2*var
	logConst []float64 // [k*p] -0.5*log(2*pi*var)
	trained  []bool
}

// CompileBayes lowers an NB spec, validating up front the table shapes
// and what keeps a posterior a number: at least one trained class (none
// leaves 0/0), a finite prior per class, and for every trained class a
// finite mean and a positive finite variance per feature (a NaN mean or
// prior, or a zero, negative or NaN variance, makes its likelihood NaN
// on every row). An untrained class's rows are never read by a
// prediction, and Train leaves its variances zero.
func CompileBayes(spec *bayes.Spec) (*Bayes, error) {
	k := len(spec.Classes)
	if k == 0 {
		return nil, fmt.Errorf("compile: nb has no classes")
	}
	if len(spec.Priors) != k || len(spec.Means) != k || len(spec.Vars) != k || len(spec.Trained) != k {
		return nil, fmt.Errorf("compile: nb tables disagree on class count (%d classes, %d priors, %d means, %d vars, %d trained)",
			k, len(spec.Priors), len(spec.Means), len(spec.Vars), len(spec.Trained))
	}
	if !slices.Contains(spec.Trained, true) {
		return nil, fmt.Errorf("compile: nb has no trained class")
	}
	p := len(spec.Means[0])
	m := &Bayes{
		classes:  spec.Classes,
		p:        p,
		priors:   spec.Priors,
		means:    make([]float64, 0, k*p),
		twoVars:  make([]float64, 0, k*p),
		logConst: make([]float64, 0, k*p),
		trained:  spec.Trained,
	}
	for c := 0; c < k; c++ {
		if len(spec.Means[c]) != p || len(spec.Vars[c]) != p {
			return nil, fmt.Errorf("compile: nb class %d has ragged parameter rows (%d means, %d vars, expected %d)",
				c, len(spec.Means[c]), len(spec.Vars[c]), p)
		}
		if !finite(spec.Priors[c]) {
			return nil, fmt.Errorf("compile: nb class %d has prior %v, want finite", c, spec.Priors[c])
		}
		for f, mu := range spec.Means[c] {
			if spec.Trained[c] && !finite(mu) {
				return nil, fmt.Errorf("compile: nb class %d feature %d has mean %v, want finite", c, f, mu)
			}
		}
		m.means = append(m.means, spec.Means[c]...)
		for f, v := range spec.Vars[c] {
			if spec.Trained[c] && !(v > 0 && v < math.Inf(1)) {
				return nil, fmt.Errorf("compile: nb class %d feature %d has variance %v, want positive and finite", c, f, v)
			}
			m.twoVars = append(m.twoVars, 2*v)
			m.logConst = append(m.logConst, -0.5*math.Log(2*math.Pi*v))
		}
	}
	return m, nil
}

// Classes returns the class vocabulary.
func (m *Bayes) Classes() []string { return m.classes }

// Fits reports whether p is the parameter tables' width.
func (m *Bayes) Fits(p int) bool { return m.p == p }

// NewScratch allocates a scratch sized for this model.
func (m *Bayes) NewScratch() *Scratch {
	k := len(m.classes)
	return &Scratch{lls: make([]float64, k), probs: make([]float64, k)}
}

// logLikelihood returns log P(x | class c) + log prior, bit-identical
// to the interpreted model: each feature contributes the same
// (logConst - d*d/twoVars) term in the same order.
func (m *Bayes) logLikelihood(c int, x []float64) float64 {
	ll := m.priors[c]
	base := c * m.p
	means := m.means[base : base+m.p]
	twoVars := m.twoVars[base : base+m.p]
	logConst := m.logConst[base : base+m.p]
	for f, v := range x {
		d := v - means[f]
		ll += logConst[f] - d*d/twoVars[f]
	}
	return ll
}

// Predict returns the maximum-posterior class index, bit-identical to
// the interpreted Model.Predict (-1 when no class trained).
func (m *Bayes) Predict(row []float64, s *Scratch) int {
	best, bestLL := -1, math.Inf(-1)
	for c := range m.classes {
		if !m.trained[c] {
			continue
		}
		if ll := m.logLikelihood(c, row); ll > bestLL {
			best, bestLL = c, ll
		}
	}
	return best
}

// PredictProb returns the winning class and the softmax-normalized
// posterior, bit-identical to the interpreted Model.PredictProb: both end
// in bayes.Posterior. The slice aliases scratch memory.
func (m *Bayes) PredictProb(row []float64, s *Scratch) (int, []float64) {
	lls := s.lls
	for c := range lls {
		lls[c] = math.Inf(-1)
		if m.trained[c] {
			lls[c] = m.logLikelihood(c, row)
		}
	}
	return bayes.Posterior(lls, s.probs), s.probs
}

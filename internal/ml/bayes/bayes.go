// Package bayes implements the Gaussian Naive Bayes classifier the paper
// evaluated first (and found to perform very poorly on SUPReMM data, whose
// attributes are neither normal nor independent -- a result the synthetic
// benchmark reproduces).
package bayes

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Model is a trained Gaussian Naive Bayes classifier; its Spec is all
// of it.
type Model struct{ spec Spec }

// varFloor keeps degenerate (constant) features from producing zero
// variances and infinite likelihoods.
const varFloor = 1e-9

// Train fits per-class feature means and variances with Laplace-smoothed
// priors.
func Train(d *dataset.Dataset) (*Model, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("bayes: empty training set")
	}
	k, p := d.NumClasses(), d.NumFeatures()
	s := &Spec{
		Classes: d.ClassNames,
		Priors:  make([]float64, k),
		Means:   make([][]float64, k),
		Vars:    make([][]float64, k),
		Trained: make([]bool, k),
	}
	counts := make([]int, k)
	for c := 0; c < k; c++ {
		s.Means[c] = make([]float64, p)
		s.Vars[c] = make([]float64, p)
	}
	for i, row := range d.X {
		c := d.Y[i]
		counts[c]++
		for f, v := range row {
			s.Means[c][f] += v
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		s.Trained[c] = true
		for f := 0; f < p; f++ {
			s.Means[c][f] /= float64(counts[c])
		}
	}
	for i, row := range d.X {
		c := d.Y[i]
		for f, v := range row {
			dlt := v - s.Means[c][f]
			s.Vars[c][f] += dlt * dlt
		}
	}
	for c := 0; c < k; c++ {
		if !s.Trained[c] {
			continue
		}
		s.Priors[c] = math.Log(float64(counts[c]+1) / float64(d.Len()+k))
		for f := 0; f < p; f++ {
			s.Vars[c][f] = s.Vars[c][f]/float64(counts[c]) + varFloor
		}
	}
	return &Model{spec: *s}, nil
}

// Classes returns the class vocabulary.
func (m *Model) Classes() []string { return m.spec.Classes }

// logLikelihood returns log P(x | class c) + log prior.
func (m *Model) logLikelihood(c int, x []float64) float64 {
	ll := m.spec.Priors[c]
	for f, v := range x {
		d := v - m.spec.Means[c][f]
		ll += -0.5*math.Log(2*math.Pi*m.spec.Vars[c][f]) - d*d/(2*m.spec.Vars[c][f])
	}
	return ll
}

// Predict returns the maximum-posterior class index.
func (m *Model) Predict(x []float64) int {
	best, bestLL := -1, math.Inf(-1)
	for c := range m.spec.Classes {
		if !m.spec.Trained[c] {
			continue
		}
		if ll := m.logLikelihood(c, x); ll > bestLL {
			best, bestLL = c, ll
		}
	}
	return best
}

// PredictProb returns the winning class and normalized posteriors
// (softmax over log likelihoods, computed stably).
func (m *Model) PredictProb(x []float64) (int, []float64) {
	lls := make([]float64, len(m.spec.Classes))
	for c := range lls {
		lls[c] = math.Inf(-1)
		if m.spec.Trained[c] {
			lls[c] = m.logLikelihood(c, x)
		}
	}
	probs := make([]float64, len(lls))
	return Posterior(lls, probs), probs
}

// Posterior writes into probs the softmax of the per-class log
// likelihoods lls, taken from the largest so no exponent overflows. An
// untrained class carries -Inf and gets exactly 0. It returns the most
// probable class, the first on ties. A NaN log likelihood is never the
// maximum, but it makes the normalizer, and so every entry, NaN.
func Posterior(lls, probs []float64) int {
	maxLL := math.Inf(-1)
	for _, ll := range lls {
		if ll > maxLL {
			maxLL = ll
		}
	}
	var z float64
	for c, ll := range lls {
		probs[c] = 0
		if math.IsInf(ll, -1) {
			continue
		}
		probs[c] = math.Exp(ll - maxLL)
		z += probs[c]
	}
	best := 0
	for c := range probs {
		probs[c] /= z
		if probs[c] > probs[best] {
			best = c
		}
	}
	return best
}

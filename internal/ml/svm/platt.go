package svm

import "math"

// fitSigmoid fits Platt's probability sigmoid P(y=1|f) = 1/(1+exp(A f + B))
// to decision values dec with labels y (+1/-1), using the Newton method
// with backtracking line search of Lin, Lin & Weng ("A note on Platt's
// probabilistic outputs for support vector machines", 2007) -- the same
// procedure LIBSVM (and therefore R e1071) uses.
func fitSigmoid(dec []float64, y []float64) (a, b float64) {
	prior1, prior0 := 0.0, 0.0
	for _, yi := range y {
		if yi > 0 {
			prior1++
		} else {
			prior0++
		}
	}
	const (
		maxIter = 100
		minStep = 1e-10
		sigma   = 1e-12
		eps     = 1e-5
	)
	hiTarget := (prior1 + 1) / (prior1 + 2)
	loTarget := 1 / (prior0 + 2)
	n := len(dec)
	t := make([]float64, n)
	for i := range t {
		if y[i] > 0 {
			t[i] = hiTarget
		} else {
			t[i] = loTarget
		}
	}

	a = 0
	b = math.Log((prior0 + 1) / (prior1 + 1))
	fval := 0.0
	for i := 0; i < n; i++ {
		fApB := dec[i]*a + b
		if fApB >= 0 {
			fval += t[i]*fApB + math.Log(1+math.Exp(-fApB))
		} else {
			fval += (t[i]-1)*fApB + math.Log(1+math.Exp(fApB))
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		// Gradient and Hessian.
		h11, h22 := sigma, sigma
		h21, g1, g2 := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			fApB := dec[i]*a + b
			var p, q float64
			if fApB >= 0 {
				e := math.Exp(-fApB)
				p = e / (1 + e)
				q = 1 / (1 + e)
			} else {
				e := math.Exp(fApB)
				p = 1 / (1 + e)
				q = e / (1 + e)
			}
			d2 := p * q
			h11 += dec[i] * dec[i] * d2
			h22 += d2
			h21 += dec[i] * d2
			d1 := t[i] - p
			g1 += dec[i] * d1
			g2 += d1
		}
		if math.Abs(g1) < eps && math.Abs(g2) < eps {
			break
		}
		// Newton direction.
		det := h11*h22 - h21*h21
		dA := -(h22*g1 - h21*g2) / det
		dB := -(-h21*g1 + h11*g2) / det
		gd := g1*dA + g2*dB

		stepsize := 1.0
		for stepsize >= minStep {
			newA := a + stepsize*dA
			newB := b + stepsize*dB
			newf := 0.0
			for i := 0; i < n; i++ {
				fApB := dec[i]*newA + newB
				if fApB >= 0 {
					newf += t[i]*fApB + math.Log(1+math.Exp(-fApB))
				} else {
					newf += (t[i]-1)*fApB + math.Log(1+math.Exp(fApB))
				}
			}
			if newf < fval+1e-4*stepsize*gd {
				a, b, fval = newA, newB, newf
				break
			}
			stepsize /= 2
		}
		if stepsize < minStep {
			break
		}
	}
	return a, b
}

// PairProb is a pair machine's P(y=+1 | decision value f): the Platt
// sigmoid 1/(1+exp(a f + b)) when calibration ran (hasAB), else a steep
// logistic on the margin. The result is clipped to [1e-7, 1-1e-7], as
// LIBSVM clips it, to keep the coupling stable.
func PairProb(f, a, b float64, hasAB bool) float64 {
	var p float64
	fApB := a*f + b
	switch {
	case !hasAB:
		p = 1 / (1 + math.Exp(-2*f))
	case fApB >= 0:
		e := math.Exp(-fApB)
		p = e / (1 + e)
	default:
		p = 1 / (1 + math.Exp(fApB))
	}
	return clamp(p, 1e-7, 1-1e-7)
}

// Couple solves the Wu-Lin-Weng (2004) "second approach" pairwise
// coupling problem over the active classes: given the flattened ka x ka
// matrix r of pairwise probabilities, r[i*ka+j] ~ P(active[i] | active[i]
// or active[j]) with ka = len(active), find the posterior p minimizing
// sum_{i<j} (r[j][i] p_i - r[i][j] p_j)^2 subject to sum p = 1, using the
// fixed-point iteration from LIBSVM's multiclass_probability (a single
// class starts, and stays, at p = 1). p, q and qp are work areas of ka,
// ka*ka and ka entries. The posterior is spread into probs, class space
// with 0 for an inactive class, and the most probable class, the first
// on ties, is returned (0 when no class is active).
func Couple(r []float64, active []int, probs, p, q, qp []float64) int {
	clear(probs)
	k := len(active)
	if k == 0 {
		return 0
	}
	for t := 0; t < k; t++ {
		p[t] = 1 / float64(k)
		qt := q[t*k : t*k+k]
		var qtt float64
		for j := 0; j < k; j++ {
			if j == t {
				continue
			}
			qtt += r[j*k+t] * r[j*k+t]
			qt[j] = -r[j*k+t] * r[t*k+j]
		}
		qt[t] = qtt
	}
	const maxIter = 100
	eps := 0.005 / float64(k) // LIBSVM's tolerance scales with class count
	for iter := 0; iter < maxIter*k; iter++ {
		pQp := 0.0
		for t := 0; t < k; t++ {
			var s float64
			for j, qtj := range q[t*k : t*k+k] {
				s += qtj * p[j]
			}
			qp[t] = s
			pQp += p[t] * s
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
			qt := q[t*k : t*k+k]
			diff := (-qp[t] + pQp) / qt[t]
			p[t] += diff
			scale := 1 + diff
			pQp = (pQp + diff*(diff*qt[t]+2*qp[t])) / (scale * scale)
			for j, qtj := range qt {
				qp[j] = (qp[j] + diff*qtj) / scale
				p[j] /= scale
			}
		}
	}
	best, bestP := active[0], -1.0
	for a, c := range active {
		probs[c] = p[a]
		if p[a] > bestP {
			best, bestP = c, p[a]
		}
	}
	return best
}

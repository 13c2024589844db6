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

// coupleProbabilities solves the Wu-Lin-Weng (2004) "second approach"
// pairwise coupling problem: given pairwise probabilities r[i][j] ~
// P(class i | class i or j), find the class posterior p minimizing
// sum_{i<j} (r[j][i] p_i - r[i][j] p_j)^2 subject to sum p = 1, using the
// fixed-point iteration from LIBSVM's multiclass_probability.
func coupleProbabilities(r [][]float64) []float64 {
	k := len(r)
	p := make([]float64, k)
	if k == 1 {
		p[0] = 1
		return p
	}
	q := make([][]float64, k)
	qp := make([]float64, k)
	for t := 0; t < k; t++ {
		p[t] = 1 / float64(k)
		q[t] = make([]float64, k)
		for j := 0; j < k; j++ {
			if j == t {
				continue
			}
			q[t][t] += r[j][t] * r[j][t]
			q[t][j] = -r[j][t] * r[t][j]
		}
	}
	const maxIter = 100
	eps := 0.005 / float64(k) // LIBSVM's tolerance scales with class count
	for iter := 0; iter < maxIter*k; iter++ {
		pQp := 0.0
		for t := 0; t < k; t++ {
			qp[t] = 0
			for j := 0; j < k; j++ {
				qp[t] += q[t][j] * p[j]
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
			diff := (-qp[t] + pQp) / q[t][t]
			p[t] += diff
			pQp = (pQp + diff*(diff*q[t][t]+2*qp[t])) / ((1 + diff) * (1 + diff))
			for j := 0; j < k; j++ {
				qp[j] = (qp[j] + diff*q[t][j]) / (1 + diff)
				p[j] /= 1 + diff
			}
		}
	}
	return p
}

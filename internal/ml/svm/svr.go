package svm

import "fmt"

// RegressorConfig holds epsilon-SVR training options.
type RegressorConfig struct {
	Kernel Kernel
	C      float64
	// Epsilon is the insensitive-tube half width in target units.
	Epsilon float64
}

// Regressor is a trained epsilon-SVR model.
type Regressor struct {
	kernel Kernel
	sv     [][]float64
	coef   []float64 // beta_i = alpha_i - alpha*_i for support vectors
	rho    float64
}

// TrainRegressor fits epsilon-SVR by solving the LIBSVM dual: a 2n-variable
// problem with linear term p = [eps - z; eps + z] and labels [+1; -1],
// both halves a view of the one n-row kernel cache. That view visits
// every row twice, so the cache keeps one segment. C and an RBF gamma
// are refused as Train refuses them.
func TrainRegressor(x [][]float64, z []float64, cfg RegressorConfig) (*Regressor, error) {
	n := len(x)
	if n == 0 || n != len(z) {
		return nil, fmt.Errorf("svm: bad SVR inputs (%d rows, %d targets)", n, len(z))
	}
	if cfg.Kernel == nil {
		cfg.Kernel = RBF{Gamma: 1.0 / float64(len(x[0]))}
	}
	if err := checkTrainable(cfg.Kernel, cfg.C); err != nil {
		return nil, err
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Epsilon < 0 {
		cfg.Epsilon = 0.1
	}
	idx := make([]int, 2*n)
	y2 := make([]float64, 2*n)
	p2 := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		idx[i], idx[n+i] = i, i
		y2[i], y2[n+i] = 1, -1
		p2[i] = cfg.Epsilon - z[i]
		p2[n+i] = cfg.Epsilon + z[i]
	}
	res := solveSMOGeneral(newKernelCache(x, cfg.Kernel, smoCacheBytes), idx, y2, p2, uniformC(2*n, cfg.C), 0)
	m := &Regressor{kernel: cfg.Kernel, rho: res.rho}
	for i := 0; i < n; i++ {
		beta := res.alpha[i] - res.alpha[n+i]
		if beta != 0 {
			m.sv = append(m.sv, x[i])
			m.coef = append(m.coef, beta)
		}
	}
	return m, nil
}

// Predict returns the regression estimate sum_i beta_i K(sv_i, x) - rho.
func (m *Regressor) Predict(x []float64) float64 {
	var s float64
	for i, sv := range m.sv {
		s += m.coef[i] * m.kernel.Compute(sv, x)
	}
	return s - m.rho
}

// NumSupportVectors returns the support-vector count.
func (m *Regressor) NumSupportVectors() int { return len(m.sv) }

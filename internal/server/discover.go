package server

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/obs/flight"
	"repro/internal/warehouse"
)

// This file serves unknown-app discovery: PCA + k-means over the
// warehouse's Uncategorized/NA population behind GET/POST /api/discover
// (+ per-job /api/discover/assign scoring). The fit lives behind an
// immutable view with atomic refit/hot-swap and rides the same
// admission/deadline/breaker governance and flight-recorder middleware
// as classify.

// WithDiscovery supplies an externally-owned discovery manager (for
// boot-time fitting). Build it with the same registry passed to
// WithMetrics so swap metrics land in one exposition; without this
// option the server builds its own empty manager and /api/discover
// answers 503 until the first refit.
func WithDiscovery(dm *core.DiscoveryManager) Option {
	return func(s *Server) { s.discovery = dm }
}

// handleDiscoverGet reports the serving discovery fit: the cluster
// table, the explained-variance curve (read the knee to see how many
// directions the unlabeled population spans), and the anomaly
// threshold.
func (s *Server) handleDiscoverGet(w http.ResponseWriter, r *http.Request) {
	v := s.discovery.View()
	if v == nil {
		s.writeError(w, http.StatusServiceUnavailable, "%s", s.assign.noModel)
		return
	}
	v.Annotate(flight.From(r.Context()))
	// Center keys encode sorted (encoding/json orders map keys), so the
	// response is byte-deterministic.
	m := v.Model
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation":        v.Generation,
		"k":                 m.K,
		"rows":              m.Rows,
		"seed":              m.Seed,
		"features":          m.Features,
		"explainedVariance": m.ExplainedVariance,
		"anomalyDistance":   m.AnomalyDistance,
		"inertia":           m.Inertia,
		"clusters":          m.Clusters,
	})
}

// refitRequest tunes a discovery refit; zero fields keep the module
// defaults (and Seed 0 is a valid, deterministic seed).
type refitRequest struct {
	K          int    `json:"k"`
	Components int    `json:"components"`
	Restarts   int    `json:"restarts"`
	Seed       uint64 `json:"seed"`
}

// handleDiscoverRefit refits the discovery model over the warehouse's
// current Uncategorized/NA population and atomically hot-swaps it in.
// Refits are control-plane work like model reloads, so they share the
// reload circuit breaker: repeated failures trip it and further
// attempts answer 503 fast without fitting; a refused request never counts.
func (s *Server) handleDiscoverRefit(w http.ResponseWriter, r *http.Request) {
	var req refitRequest
	if s.decodeBody(w, r, maxClassifyBody, &req, true) != 0 {
		return
	}
	if req.K < 0 || req.Components < 0 || req.Restarts < 0 {
		s.writeError(w, http.StatusBadRequest, "k, components and restarts must be >= 0")
		return
	}
	gen, err := s.RefitDiscovery(core.DiscoveryConfig{
		K: req.K, Components: req.Components, Restarts: req.Restarts,
		Seed: req.Seed, Workers: s.batchWorkers,
	})
	if err != nil {
		s.log.Warn("discovery refit failed", "err", err)
		s.controlError(w, "discovery refit", http.StatusBadRequest, err)
		return
	}
	v := s.discovery.View()
	s.log.Info("discovery refit", "generation", gen, "k", v.Model.K, "rows", v.Model.Rows)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"k":          v.Model.K,
		"rows":       v.Model.Rows,
	})
}

// RefitDiscovery fits PCA + k-means over the warehouse's current
// unlabeled population and swaps the result in, through the shared
// control-plane breaker and the discover.fit fault site. SIGHUP-driven
// refits and the admin endpoint both route here. A cfg the population
// refuses (core.DiscoveryConfig.Validate) is refused before the guard,
// so a client's typo never consumes a breaker failure. On failure the
// still-serving generation is returned.
func (s *Server) RefitDiscovery(cfg core.DiscoveryConfig) (uint64, error) {
	gen := s.discovery.Generation()
	opt := core.DefaultFeatures()
	names := core.FeatureNames(opt)
	unlabeled := s.store.Snapshot().Filter((*warehouse.Record).Unlabeled)
	if err := cfg.Validate(len(unlabeled), len(names)); err != nil {
		return gen, err
	}
	err := s.controlGuard(func() error {
		if err := s.faults.Inject(FaultDiscoverFit); err != nil {
			return err
		}
		m, err := core.FitDiscovery(core.FeaturizeAll(unlabeled, opt), names, cfg)
		if err != nil {
			return err
		}
		gen, err = s.discovery.Swap(m)
		return err
	})
	return gen, err
}

// assignRequest scores one job against the discovery fit.
type assignRequest struct {
	Features map[string]float64 `json:"features"`
}

// assignReply is the /api/discover/assign body: which discovered
// cluster the job belongs to, how far from the center it sits, and
// whether that distance (or the cluster itself) is anomalous.
func assignReply(v *core.DiscoveryView, _ *assignRequest, a *core.Assignment, defaulted []string) any {
	return map[string]any{
		"cluster":          a.Cluster,
		"distance":         a.Distance,
		"anomalous":        a.Anomalous,
		"clusterAnomalous": a.ClusterAnomalous,
		"projection":       a.Projection,
		"generation":       v.Generation,
		"defaulted":        defaulted,
	}
}

package hetis

import (
	"hetis/internal/perf"
	"hetis/internal/profile"
)

// Estimator is the calibrated analytic cost model: module times on devices
// and communication costs. It is the ground truth the Profiler fits.
type Estimator = perf.Estimator

// NewEstimator builds the cost model for a model configuration, or returns
// why the configuration is invalid. It is exposed for custom studies (e.g.
// exploring a hypothetical GPU before adding it to a cluster).
func NewEstimator(m ModelConfig) (*Estimator, error) {
	return perf.New(m)
}

// ProfileCluster runs the §5.1 Profiler: it fits the linear attention-time
// and transfer models for every device relative to the given primary.
func ProfileCluster(m ModelConfig, cluster *Cluster, primary DeviceID) (*Profile, error) {
	est, err := NewEstimator(m)
	if err != nil {
		return nil, err
	}
	return profile.Run(est, cluster, primary)
}

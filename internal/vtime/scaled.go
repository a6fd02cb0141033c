package vtime

import "time"

// Scaled is a clock that runs faster than the wall clock by a constant
// factor. The cluster experiments use it to reproduce the paper's
// second-scale and minute-scale measurements (container cold starts,
// training runs, load sweeps) in a fraction of the wall time while keeping
// real concurrency: sleeping d on a Scaled clock sleeps d/scale for real,
// and Now advances scale× faster than the wall clock.
//
// All reported durations come from this clock, so they are directly
// comparable with the paper's numbers; the experiment reports note the scale
// each run used.
type Scaled struct {
	scale     float64
	realEpoch time.Time
	virtEpoch time.Time
}

// NewScaled creates a clock running scale× wall speed (scale ≥ 1).
func NewScaled(scale float64) *Scaled {
	if scale < 1 {
		scale = 1
	}
	return &Scaled{
		scale:     scale,
		realEpoch: time.Now(),
		virtEpoch: time.Unix(0, 0).Add(time.Hour),
	}
}

// Now returns the scaled time.
func (s *Scaled) Now() time.Time {
	elapsed := time.Since(s.realEpoch)
	return s.virtEpoch.Add(time.Duration(float64(elapsed) * s.scale))
}

// Sleep blocks for d of scaled time (d/scale of wall time).
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) / s.scale))
}

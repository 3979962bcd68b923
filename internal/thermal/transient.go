package thermal

import (
	"fmt"
	"math"
)

// Volumetric heat capacities in J/(m³·K), for the transient solver.
const (
	CvSilicon = 1.75e6
	CvCopper  = 3.45e6
	CvTIM     = 2.0e6
	CvD2D     = 0.25*CvCopper + 0.75*1200 // via field: copper + air
)

// heatCapacityFor maps a layer to its volumetric heat capacity by
// material (inferred from its conductivity).
func heatCapacityFor(l *Layer) float64 {
	switch {
	case l.K == KCopper:
		return CvCopper
	case l.K == KTIM:
		return CvTIM
	case l.K == KSilicon:
		return CvSilicon
	default:
		return CvD2D
	}
}

// TransientResult is a sampled transient temperature trajectory.
type TransientResult struct {
	// TimesS are the sample instants in seconds.
	TimesS []float64
	// PeakK[i] is the stack-wide peak temperature at TimesS[i].
	PeakK []float64
	// Final is the temperature field at the end of the simulation.
	Final *Solution
}

// SolveTransient integrates the stack's thermal RC network from a
// uniform ambient-temperature start over duration seconds using backward
// Euler steps of dt seconds (unconditionally stable), sampling the peak
// temperature every sampleEvery steps. It answers questions the
// steady-state solver cannot: how fast hotspots form when a workload
// starts, which the paper's HotSpot methodology also captures.
func (s *Stack) SolveTransient(duration, dt float64, sampleEvery int) (*TransientResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 || dt <= 0 || dt > duration {
		return nil, fmt.Errorf("thermal: bad transient horizon %g s / step %g s", duration, dt)
	}
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	cellArea := s.CellW * s.CellH
	shift := make([]float64, len(s.Layers)) // C/dt per cell of each layer
	for l := range s.Layers {
		layer := &s.Layers[l]
		shift[l] = heatCapacityFor(layer) * layer.Thickness * cellArea / dt
	}
	sys := newSystem(s, shift)
	rise := make([]float64, sys.nl*sys.n) // uniform ambient start

	steps := int(duration/dt + 0.5)
	res := &TransientResult{}
	record := func(t float64) {
		peak := math.Inf(-1)
		for _, v := range rise {
			peak = math.Max(peak, v)
		}
		res.TimesS = append(res.TimesS, t)
		res.PeakK = append(res.PeakK, s.Ambient+peak)
	}
	record(0)

	// Backward Euler: each step solves (K + C/dt)·u' = P + C/dt·u with
	// the steady-state solver's conjugate gradients, warm-started from
	// the previous step's field.
	for step := 1; step <= steps; step++ {
		for l, layer := range s.Layers {
			bl := sys.r[l*sys.n : (l+1)*sys.n]
			ul := rise[l*sys.n : (l+1)*sys.n]
			for i := range bl {
				bl[i] = shift[l] * ul[i]
			}
			for i, w := range layer.Power {
				bl[i] += w
			}
		}
		if _, err := sys.solve(rise); err != nil {
			return nil, fmt.Errorf("transient step %d: %w", step, err)
		}
		if step%sampleEvery == 0 || step == steps {
			record(float64(step) * dt)
		}
	}
	res.Final = &Solution{Stack: s, T: sys.temperatures(rise, s.Ambient)}
	return res, nil
}

// TimeToWithin returns the first sampled instant at which the peak
// temperature is within eps kelvin of its final value, approximating the
// stack's thermal settling time.
func (r *TransientResult) TimeToWithin(eps float64) float64 {
	final := r.PeakK[len(r.PeakK)-1]
	for i, p := range r.PeakK {
		if math.Abs(final-p) <= eps {
			return r.TimesS[i]
		}
	}
	return r.TimesS[len(r.TimesS)-1]
}

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
//
// The capacitive term C/dt is uniform within a layer, so the lateral
// modes of the steady-state solver stay independent: every step is
// taken on the modes with factors built once per call, and only the
// sampled steps transform back to cells.
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
	sv := newSolver(s, shift)
	n := sv.n
	power := sv.powerModes(s)
	u := make([]float64, sv.nl*n) // modes of the rise; uniform ambient start

	steps := int(duration/dt + 0.5)
	res := &TransientResult{}
	record := func(t float64) {
		res.Final = &Solution{Stack: s, T: sv.temperatures(u, s.Ambient)}
		peak, _, _, _ := res.Final.Peak()
		res.TimesS = append(res.TimesS, t)
		res.PeakK = append(res.PeakK, peak)
	}
	record(0)

	// Backward Euler: each step solves (K + C/dt)·u' = P + C/dt·u.
	for step := 1; step <= steps; step++ {
		for l := range s.Layers {
			ul, pl := u[l*n:(l+1)*n], power[l*n:(l+1)*n]
			for i := range ul {
				ul[i] = shift[l]*ul[i] + pl[i]
			}
		}
		sv.solveModes(u)
		if step%sampleEvery == 0 || step == steps {
			record(float64(step) * dt)
		}
	}
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

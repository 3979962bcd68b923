package experiments

import (
	"fmt"

	"thermalherd/internal/config"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
)

// LeakageFeedbackResult reports the converged power/temperature fixpoint
// when leakage depends on local temperature.
type LeakageFeedbackResult struct {
	// PeakNoFeedbackK is the peak with temperature-independent leakage
	// (the paper's assumption).
	PeakNoFeedbackK float64
	// PeakK is the converged peak with exponential leakage feedback.
	PeakK float64
	// LeakageW is the converged total leakage (vs. the nominal 18 W).
	LeakageW float64
	// Iterations until |ΔT| < 0.1 K.
	Iterations int
	// Diverged is set if the loop failed to converge (thermal runaway).
	Diverged bool
}

// LeakageFeedback iterates the power and thermal models to a fixpoint
// with temperature-dependent leakage — an effect the paper's methodology
// (like most HotSpot studies of its era) holds constant, and a natural
// robustness check on the thermal conclusions: herding should still win
// when hot spots pay a leakage premium.
func LeakageFeedback(r *Runner, cfg config.Machine, workload string) (*LeakageFeedbackResult, error) {
	b, err := r.PowerFor(cfg, workload)
	if err != nil {
		return nil, err
	}
	sol, fp, err := r.SolveThermal(cfg, b)
	if err != nil {
		return nil, err
	}
	res := &LeakageFeedbackResult{}
	res.PeakNoFeedbackK, _, _, _ = sol.Peak()

	// RescaleLeakage rewrites every unit of cur each iteration.
	cur := &power.Breakdown{UnitW: make(map[power.UnitKey]float64, len(fp.Units))}
	prevPeak := res.PeakNoFeedbackK
	const maxIters = 20
	for iter := 1; iter <= maxIters; iter++ {
		res.Iterations = iter
		// Rescale each unit's leakage by its local temperature.
		res.LeakageW = b.RescaleLeakage(fp, func(u floorplan.Unit) float64 {
			return power.LeakageScaleAt(thermal.PeakOfUnit(sol, fp, u))
		}, cur.UnitW)
		sol, _, err = r.SolveThermal(cfg, cur)
		if err != nil {
			return nil, err
		}
		peak, _, _, _ := sol.Peak()
		res.PeakK = peak
		if peak > 500 {
			res.Diverged = true
			return res, nil
		}
		if d := peak - prevPeak; d < 0.1 && d > -0.1 {
			return res, nil
		}
		prevPeak = peak
	}
	res.Diverged = true
	return res, nil
}

// RenderLeakageFeedback formats the result.
func (l *LeakageFeedbackResult) String() string {
	if l.Diverged {
		return fmt.Sprintf("DIVERGED after %d iterations (thermal runaway; last peak %.1f K)",
			l.Iterations, l.PeakK)
	}
	return fmt.Sprintf("peak %.1f K -> %.1f K with leakage feedback (+%.1f K, leakage %.1f W, %d iterations)",
		l.PeakNoFeedbackK, l.PeakK, l.PeakK-l.PeakNoFeedbackK, l.LeakageW, l.Iterations)
}

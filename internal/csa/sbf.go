// Package csa implements the compositional scheduling analysis used by
// vC2M (Section 4 of the paper):
//
//   - the classical periodic resource model of Shin & Lee [13] — the
//     "existing CSA" used by the baseline solutions — with its supply-bound
//     function and minimum-budget computation for EDF;
//   - Theorem 1 ("flattening"): a task mapped alone onto a VCPU with a
//     synchronized release is schedulable with Pi = p and Theta(c,b) =
//     e(c,b), removing the abstraction overhead entirely;
//   - Theorem 2 ("overhead-free" analysis): a harmonic taskset is
//     EDF-schedulable on a well-regulated VCPU with Pi = min p_i and
//     Theta(c,b) = Pi * sum e_i(c,b)/p_i, i.e. a VCPU bandwidth equal to the
//     taskset's utilization;
//   - WCET/budget inflation hooks for intra-core preemption overhead [17].
//
// All times are in milliseconds, matching package model.
package csa

import (
	"math"

	"vc2m/internal/metrics"
)

// Counter names recorded by the metered analysis entry points. The
// dbf/sbf checkpoint-evaluation counters are the paper's Figure-4
// running-time gap made countable: the existing CSA evaluates demand and
// supply at every checkpoint of every (c,b) allocation, while the
// overhead-free analyses (Theorems 1 and 2) evaluate none.
const (
	// MetricDBFEvals counts demand-bound evaluations, one per (checkpoint,
	// WCET-vector) pair.
	MetricDBFEvals = "csa.dbf.checkpoint_evals"
	// MetricSBFEvals counts real SBF calls made by the minimum-budget
	// search: bisection steps too close to the closed-form threshold to
	// decide without SBF, the dedicated-core check of a bisection that
	// never lowered its upper end, and the final verification of the
	// returned budget at every checkpoint with positive demand.
	MetricSBFEvals = "csa.sbf.evals"
	// MetricMinBudgetCalls counts minimum-budget searches (one per (c,b)
	// allocation of every existing-CSA VCPU).
	MetricMinBudgetCalls = "csa.minbudget.calls"
	// MetricMinBudgetIters counts replayed bisection decision steps
	// across all minimum-budget searches. A checkpoint the running
	// maximum already meets is skipped and contributes none; each step of
	// the others counts once, whether SBF decided it or the closed-form
	// threshold did.
	MetricMinBudgetIters = "csa.minbudget.bisect_iters"
	// MetricExistingVCPUs counts VCPUs parameterized with the existing CSA.
	MetricExistingVCPUs = "csa.existing.vcpus"
)

// SBF returns the supply-bound function of the periodic resource model
// Gamma = (pi, theta): the minimum CPU time a periodic server with period pi
// and budget theta is guaranteed to supply in any interval of length t
// (Shin & Lee [13]). It is 0 for t <= pi-theta (the worst-case startup
// blackout spans up to 2(pi-theta)).
func SBF(pi, theta, t float64) float64 {
	if theta <= 0 || t <= 0 {
		return 0
	}
	if theta > pi {
		theta = pi
	}
	blackout := pi - theta
	if t <= blackout {
		return 0
	}
	k := math.Floor((t - blackout) / pi)
	supply := k*theta + math.Max(0, t-2*blackout-k*pi)
	if supply < 0 {
		return 0
	}
	return supply
}

// LinearSBF returns the linear lower bound on SBF often used for fast
// feasibility filtering: lsbf(t) = (theta/pi) * (t - 2(pi-theta)), clamped
// at 0. LinearSBF(t) <= SBF(t) for all t.
func LinearSBF(pi, theta, t float64) float64 {
	if theta <= 0 {
		return 0
	}
	if theta > pi {
		theta = pi
	}
	v := theta / pi * (t - 2*(pi-theta))
	if v < 0 {
		return 0
	}
	return v
}

// budgetEps is the absolute tolerance (in ms) of the minimum-budget
// search in MinBudgetForDemand. One nanosecond of budget is far below
// scheduler resolution.
const budgetEps = 1e-6

// MinBudgetForDemand returns the minimum budget theta such that the
// periodic resource (pi, theta) satisfies dbf(t) <= sbf(t) at every
// checkpoint, where demands[i] is the EDF demand bound at checkpoints[i].
// The boolean result is false when no theta <= pi suffices (the taskset
// overloads a dedicated core). Checkpoints with zero demand are skipped.
//
// SBF is non-decreasing in theta for fixed t, so the minimum budget for
// each checkpoint is the end point of a bisection over [0, pi] to within
// budgetEps/4, and the overall minimum is the maximum over checkpoints.
// The bisection is not run step by step against SBF: each checkpoint's
// threshold is located by inverting SBF in closed form (sbfInverse), a
// checkpoint the running maximum already clears is skipped, and the
// bisection's midpoints are replayed against the threshold, with SBF
// evaluated only for a midpoint too close to it to decide in floating
// point. The result is the same float64 the step-by-step bisection
// returns.
func MinBudgetForDemand(pi float64, checkpoints, demands []float64) (float64, bool) {
	theta, ok, _, _ := minBudgetForDemand(pi, checkpoints, demands)
	return theta, ok
}

// MinBudgetForDemandMetered is MinBudgetForDemand with search-effort
// accounting: it additionally records the number of sbf evaluations and
// replayed bisection steps on rec (nil-safe).
func MinBudgetForDemandMetered(pi float64, checkpoints, demands []float64, rec *metrics.Recorder) (float64, bool) {
	theta, ok, sbfEvals, iters := minBudgetForDemand(pi, checkpoints, demands)
	if rec != nil {
		rec.Inc(MetricMinBudgetCalls)
		rec.Add(MetricSBFEvals, sbfEvals)
		rec.Add(MetricMinBudgetIters, iters)
	}
	return theta, ok
}

// minBudgetForDemand is the shared implementation; it tallies its sbf
// evaluations and replayed bisection steps in plain locals so the
// disabled-metrics path pays nothing beyond integer increments.
//
// Each checkpoint's bisection keeps lo unmet and hi met, halving [0, pi]
// at mid = (lo+hi)/2 until hi-lo <= budgetEps/4 (at most 64 steps). Its
// midpoints are rounded floats, not multiples of pi/2^n, so the end point
// cannot be computed directly; the steps are replayed instead, and only
// the decision "SBF(pi, mid, t) >= d" is taken from the closed-form
// threshold. Two consequences keep the result exact:
//
//   - A checkpoint whose threshold lies below the running maximum by more
//     than the rounding band cannot raise it. Every bisection walks the
//     same tree of midpoints with the same stop rule, and the running
//     maximum is an end point in that tree, so this checkpoint's bisection
//     would reach it as a midpoint or an end, find it met, and end at or
//     below it.
//   - A bisection whose hi moved was met at hi, so its final "supply at
//     hi" check cannot fail; only a bisection that never moved hi checks
//     the dedicated-core supply SBF(pi, pi, t).
func minBudgetForDemand(pi float64, checkpoints, demands []float64) (theta float64, ok bool, sbfEvals, iters int64) {
	if pi <= 0 {
		return 0, false, 0, 0
	}
	var need float64
	for i, t := range checkpoints {
		d := demands[i]
		if d <= 0 {
			continue
		}
		// Even a dedicated core (theta = pi) supplies at most t by time t.
		if d > t+1e-9 {
			return 0, false, sbfEvals, iters
		}
		star, band := sbfInverse(pi, t, d)
		below, above := star-band, star+band
		if need > above {
			continue // met by the running maximum
		}
		lo, hi, moved := 0.0, pi, false
		for iter := 0; iter < 64 && hi-lo > budgetEps/4; iter++ {
			iters++
			mid := (lo + hi) / 2
			var met bool
			switch {
			case mid > above:
				met = true
			case mid < below:
				met = false
			default: // inside the band, or no threshold (NaN)
				sbfEvals++
				met = SBF(pi, mid, t) >= d
			}
			if met {
				hi, moved = mid, true
			} else {
				lo = mid
			}
		}
		if !moved {
			sbfEvals++
			if SBF(pi, hi, t) < d-1e-9 {
				return 0, false, sbfEvals, iters
			}
		}
		if hi > need {
			need = hi
		}
	}
	// Nudge up so that the returned budget is on the feasible side of the
	// bisection tolerance at every checkpoint.
	need = math.Min(pi, need+budgetEps/2)
	for i, t := range checkpoints {
		if demands[i] > 0 {
			sbfEvals++
			if SBF(pi, need, t) < demands[i]-1e-9 {
				return 0, false, sbfEvals, iters
			}
		}
	}
	return need, true, sbfEvals, iters
}

// sbfInverse returns star, the least budget theta with SBF(pi, theta, t)
// = d in exact arithmetic, and a band half-width around it: for every
// theta in [0, pi] above star+band the floating-point SBF(pi, theta, t)
// is >= d, and for every theta below star-band it is < d. Where that
// guarantee is not established (t <= 0, d <= band, NaN or extreme
// magnitudes) star is NaN and band is +Inf, which makes the
// caller evaluate SBF at every step.
//
// For fixed t, with n = floor(t/pi) and r = t - n*pi, SBF is continuous,
// piecewise linear and non-decreasing in theta. On [0, pi] only the
// periods k in {n-1, n} are reachable, giving four pieces:
//
//	[0, (pi-r)/2]         (n-1)*theta
//	[(pi-r)/2, pi-r]      (n+1)*theta - (pi-r)
//	[pi-r, pi-r/2]        n*theta
//	[pi-r/2, pi]          (n+2)*theta - (2*pi-r)      reaching t at pi
//
// (for n = 0 the first three are 0). Wherever SBF is positive its slope
// is at least 1, so a supply error e moves the threshold by at most e.
// The floating-point SBF is within 2^-49*(t+pi) of the exact one, and star
// is computed to within a few 2^-53*(t+pi); band = 2^-44*(t+pi) leaves a
// margin of 32. When d > t the last piece is extrapolated past pi, so a
// demand that a dedicated core misses by less than the band is still
// decided by SBF itself.
func sbfInverse(pi, t, d float64) (star, band float64) {
	s := t + pi
	band = 0x1p-44 * s
	if !(t > 0) || !(s >= 0x1p-600 && s <= 0x1p600) || !(d > band) {
		return math.NaN(), math.Inf(1)
	}
	n := math.Floor(t / pi)
	r := t - n*pi
	if r < 0 {
		n, r = n-1, r+pi
	} else if r >= pi {
		n, r = n+1, r-pi
	}
	if !(r >= 0 && r < pi) {
		return math.NaN(), math.Inf(1)
	}
	switch {
	case n >= 2 && d <= (n-1)*(pi-r)/2:
		star = d / (n - 1)
	case d <= n*(pi-r):
		star = (d + pi - r) / (n + 1)
	case d <= n*(pi-r/2):
		star = d / n
	default:
		star = (d + 2*pi - r) / (n + 2)
	}
	return star, band
}

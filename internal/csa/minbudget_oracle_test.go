package csa

import (
	"math"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// bisectMinBudget is the step-by-step bisection that minBudgetForDemand
// replays: every step evaluates SBF at the midpoint. It is the reference
// oracle the replaying search must match bit for bit.
func bisectMinBudget(pi float64, checkpoints, demands []float64) (theta float64, ok bool, sbfEvals, iters int64) {
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
		lo, hi := 0.0, pi
		for iter := 0; iter < 64 && hi-lo > budgetEps/4; iter++ {
			iters++
			sbfEvals++
			mid := (lo + hi) / 2
			if SBF(pi, mid, t) >= d {
				hi = mid
			} else {
				lo = mid
			}
		}
		sbfEvals++
		if SBF(pi, hi, t) < d-1e-9 {
			return 0, false, sbfEvals, iters
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

// matchOracle reports a mismatch between minBudgetForDemand and the
// bisection oracle: the budgets must agree in every bit and the verdicts
// must agree. It returns the SBF calls each made.
func matchOracle(t testing.TB, pi float64, cps, dem []float64) (sbfEvals, oracleEvals int64) {
	t.Helper()
	got, gotOK, sbfEvals, _ := minBudgetForDemand(pi, cps, dem)
	want, wantOK, oracleEvals, _ := bisectMinBudget(pi, cps, dem)
	if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
		t.Fatalf("minBudgetForDemand(%v, %v, %v) = (%v, %v), bisection = (%v, %v)",
			pi, cps, dem, got, gotOK, want, wantOK)
	}
	return sbfEvals, oracleEvals
}

// bisectionGridPoint returns the hi end of a bisection of [0, pi] after a
// random path of up to depth steps: a budget the search can land on.
func bisectionGridPoint(rng *rngutil.RNG, pi float64, depth int) float64 {
	lo, hi := 0.0, pi
	for i := 0; i < depth; i++ {
		mid := (lo + hi) / 2
		if rng.Intn(2) == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// randomPeriod draws a resource period: log-uniform over seven decades,
// half a harmonic workload base period (the existing CSA's rule), or a
// small integer.
func randomPeriod(rng *rngutil.RNG) float64 {
	switch rng.Intn(3) {
	case 0:
		return math.Pow(10, rng.Uniform(-3, 4))
	case 1:
		return rng.Uniform(100, 137.5) * float64(int(1)<<rng.Intn(4)) / 2
	default:
		return float64(1 + rng.Intn(20))
	}
}

// randomCheckpoint draws a checkpoint for period pi near the places SBF
// changes shape: a whole number of periods, a random offset, or just off
// a period boundary.
func randomCheckpoint(rng *rngutil.RNG, pi float64) float64 {
	n := float64(rng.Intn(40))
	switch rng.Intn(6) {
	case 0:
		return n * pi
	case 1:
		return math.Nextafter(n*pi, math.Inf(1))
	case 2:
		return math.Nextafter((n+1)*pi, 0)
	case 3:
		return (n + 0.5) * pi
	case 4: // a harmonic multiple of the period, as workload checkpoints are
		return 2 * pi * float64(int(1)<<rng.Intn(6))
	default:
		return (n + rng.Float64()) * pi
	}
}

// randomDemand draws a demand at checkpoint t: on the supply curve at a
// random or bisection-grid budget (and a few ulps off it), uniform below
// t, at or just past the dedicated-core limit t+1e-9, tiny, zero or
// negative.
func randomDemand(rng *rngutil.RNG, pi, t float64) float64 {
	switch rng.Intn(12) {
	case 0, 1:
		return SBF(pi, bisectionGridPoint(rng, pi, rng.Intn(30)), t)
	case 2:
		d := SBF(pi, bisectionGridPoint(rng, pi, rng.Intn(30)), t)
		for k := rng.Intn(4); k >= 0; k-- {
			if rng.Intn(2) == 0 {
				d = math.Nextafter(d, math.Inf(1))
			} else {
				d = math.Nextafter(d, 0)
			}
		}
		return d
	case 3:
		return SBF(pi, rng.Float64()*pi, t)
	case 4, 5:
		return rng.Float64() * t
	case 6:
		return t
	case 7: // in (t, t+1e-9]: feasible only up to rounding
		return t + (1-rng.Float64())*1e-9
	case 8: // just above t+1e-9: infeasible
		return math.Nextafter(t+1e-9, math.Inf(1))
	case 9:
		return math.Pow(10, rng.Uniform(-16, -8))
	case 10:
		return 0
	default:
		return -rng.Float64()
	}
}

// TestMinBudgetMatchesBisectionOracle checks the replaying search against
// the step-by-step bisection on over a million random (pi, t, d) cases,
// biased to where rounding decides: demands on the supply curve at the
// bisection's own grid points, checkpoints on period boundaries, demands
// at the dedicated-core limit, and non-positive periods. A third of the
// cases carry several checkpoints, so skipping checkpoints the running
// maximum already meets is exercised too.
func TestMinBudgetMatchesBisectionOracle(t *testing.T) {
	cases := 1 << 20
	if testing.Short() {
		cases = 1 << 16
	}
	rng := rngutil.New(1)
	cps := make([]float64, 0, 8)
	dem := make([]float64, 0, 8)
	for i := 0; i < cases; i++ {
		pi := randomPeriod(rng)
		n := 1
		if rng.Intn(3) == 0 {
			n = 2 + rng.Intn(7)
		}
		cps, dem = cps[:0], dem[:0]
		for j := 0; j < n; j++ {
			cp := randomCheckpoint(rng, pi)
			cps = append(cps, cp)
			dem = append(dem, randomDemand(rng, pi, cp))
		}
		if rng.Intn(200) == 0 {
			pi = -pi * float64(rng.Intn(2)) // zero or negative
		}
		matchOracle(t, pi, cps, dem)
	}
}

// forEachSearch calls fn with every (c,b) minimum-budget search the
// existing CSA runs for a VCPU holding each generated VM's taskset, and
// one holding every other task of it: period half the minimum task
// period, demand at the taskset's checkpoints.
func forEachSearch(t testing.TB, cfg workload.Config, seed int64, fn func(pi float64, cps, dem []float64)) {
	t.Helper()
	sys, err := workload.Generate(cfg, rngutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	plat := cfg.Platform
	for _, vm := range sys.VMs {
		groups := [][]*model.Task{vm.Tasks}
		if len(vm.Tasks) > 1 {
			var half []*model.Task
			for i := 0; i < len(vm.Tasks); i += 2 {
				half = append(half, vm.Tasks[i])
			}
			groups = append(groups, half)
		}
		for _, tasks := range groups {
			periods := TaskPeriods(tasks)
			demand, err := NewDemand(periods)
			if err != nil {
				t.Fatal(err)
			}
			pi := periods[0]
			for _, p := range periods[1:] {
				pi = math.Min(pi, p)
			}
			pi /= 2
			cps := demand.Checkpoints()
			for c := plat.Cmin; c <= plat.C; c++ {
				for b := plat.Bmin; b <= plat.B; b++ {
					fn(pi, cps, demand.DBF(TaskWCETs(tasks, c, b)))
				}
			}
		}
	}
}

// TestMinBudgetMatchesOracleOnGeneratedTasksets checks every (c,b) search
// of generated tasksets on Platforms A, B and C under the uniform,
// bimodal-light and bimodal-heavy distributions, from light load to
// overload, and that the replay needs far fewer SBF calls than the
// bisection's one per step.
func TestMinBudgetMatchesOracleOnGeneratedTasksets(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	var searches, sbfEvals, oracleEvals int64
	for _, plat := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for _, dist := range []workload.Distribution{workload.Uniform, workload.BimodalLight, workload.BimodalHeavy} {
			for seed := int64(0); seed < seeds; seed++ {
				for _, util := range []float64{0.4, 1.2, 2.4} {
					cfg := workload.Config{Platform: plat, TargetRefUtil: util, Dist: dist}
					forEachSearch(t, cfg, 100*seed+int64(util*10), func(pi float64, cps, dem []float64) {
						se, oe := matchOracle(t, pi, cps, dem)
						searches++
						sbfEvals += se
						oracleEvals += oe
					})
				}
			}
		}
	}
	if searches == 0 {
		t.Fatal("no searches generated")
	}
	if sbfEvals*4 > oracleEvals {
		t.Errorf("replay made %d SBF calls, bisection %d: want at most a quarter", sbfEvals, oracleEvals)
	}
	t.Logf("%d searches bit-identical; SBF calls %d (bisection %d)", searches, sbfEvals, oracleEvals)
}

// FuzzMinBudgetForDemand checks the replaying search against the
// bisection oracle on arbitrary periods and up to three checkpoints.
func FuzzMinBudgetForDemand(f *testing.F) {
	f.Add(10.0, 10.0, 1.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(5.0, 10.0, 1.0, 20.0, 2.0, 0.0, 0.0)
	f.Add(50.0, 100.0, 100.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(50.0, 100.0, 100.0000000005, 0.0, 0.0, 0.0, 0.0)
	f.Add(59.375, 237.5, 41.2, 475.0, 96.3, 950.0, 210.1)
	f.Add(-1.0, 10.0, 1.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, pi, t1, d1, t2, d2, t3, d3 float64) {
		matchOracle(t, pi, []float64{t1, t2, t3}, []float64{d1, d2, d3})
	})
}

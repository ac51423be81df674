// Calibration: fit the cost model's linear constants to measured job
// times by least squares.
//
// The Gumbo job cost (Eq. 2) is linear in five lumped coefficients.
// Expanding JobCost(Gumbo, j) with N = ΣN_i, M = ΣM_i, merge volume
// V = Σ mapMergeVolume_i + redMergeVolume, and output K:
//
//	cost = cost_h·1 + hr·N + (lw+t)·M + (lr+lw)·V + hw·K
//
// lw, t and lr never appear alone — only the sums lw+t (every
// intermediate MB is written by a mapper and transferred to a reducer)
// and lr+lw (every merged MB is read and rewritten) are identifiable
// from job-level measurements. Fit therefore solves for the five lumped
// coefficients [cost_h, hr, lw+t, lr+lw, hw] and splits the sums back
// into individual constants in the base config's proportions, so the
// fitted Config reproduces the least-squares predictions exactly.
package cost

import (
	"fmt"
	"math"
)

// Observation pairs one executed job's measured size spec with its
// measured cost in seconds (for the in-process engine: the job's task
// spans summed from the run's task record, mr.JobTiming.TotalSeconds,
// each span including the stage-join work its task ran).
type Observation struct {
	Spec    JobSpec
	Seconds float64
}

// nFeatures is the number of lumped coefficients of the Gumbo model.
const nFeatures = 5

// Features returns the job's feature vector [1, N, M, V, K] under the
// config's size-dependent settings (splits, buffers, merge factor):
// the quantities the lumped coefficients multiply. The decomposition is
// exact: JobCost(Gumbo, j) = Coeffs()·Features(j).
func (c Config) Features(j JobSpec) [nFeatures]float64 {
	var f [nFeatures]float64
	f[0] = 1
	for _, p := range j.Partitions {
		f[1] += p.InputMB
		f[3] += c.mapMergeVolume(p.InterMB, p.MetaMB(c), c.mappersFor(p))
	}
	m := j.InterMB()
	f[2] = m
	f[3] += c.redMergeVolume(m, c.reducersFor(j))
	f[4] = j.OutputMB
	return f
}

// Coeffs returns the config's lumped coefficient vector
// [cost_h, hr, lw+t, lr+lw, hw] (see Features).
func (c Config) Coeffs() [nFeatures]float64 {
	return [nFeatures]float64{
		c.JobOverhead,
		c.HDFSRead,
		c.LocalWrite + c.Transfer,
		c.LocalRead + c.LocalWrite,
		c.HDFSWrite,
	}
}

// coeffNames labels the lumped coefficients in reports.
var coeffNames = [nFeatures]string{"cost_h", "hr", "lw+t", "lr+lw", "hw"}

// FitResult is the outcome of one calibration.
type FitResult struct {
	// Config is the base config with the fitted constants substituted:
	// JobOverhead, HDFSRead, HDFSWrite directly; LocalWrite, Transfer and
	// LocalRead split from the fitted lw+t and lr+lw in the base config's
	// proportions. All size-dependent settings (buffers, splits, merge
	// factor, reducer allocation) are kept from the base, so the fitted
	// config prices exactly the feature vectors it was fitted on.
	Config Config
	// Coeffs are the fitted lumped coefficients [cost_h, hr, lw+t, lr+lw, hw],
	// equal to Config.Coeffs().
	Coeffs [nFeatures]float64
	// Fitted marks which coefficients were estimated; a coefficient whose
	// feature column is zero across all observations (e.g. no job ever
	// merged) is unidentifiable and keeps the base config's value.
	Fitted [nFeatures]bool
	// N is the number of observations used.
	N int
}

// CoeffString renders the fitted coefficients for reports, marking the
// unidentifiable ones.
func (r FitResult) CoeffString() string {
	s := ""
	for k := 0; k < nFeatures; k++ {
		if k > 0 {
			s += " "
		}
		tag := ""
		if !r.Fitted[k] {
			tag = "*"
		}
		s += fmt.Sprintf("%s=%.6g%s", coeffNames[k], r.Coeffs[k], tag)
	}
	return s
}

// Fit estimates the lumped cost coefficients from measured jobs by
// ridge-regularized least squares and returns them embedded in a
// Config. The base config supplies the size-dependent settings used to
// compute features, the values of unidentifiable coefficients, and the
// proportions for splitting lw+t and lr+lw. Negative estimates are
// clamped to zero (the constants are physical prices). At least one
// observation is required.
func Fit(base Config, obs []Observation) (FitResult, error) {
	if len(obs) == 0 {
		return FitResult{}, fmt.Errorf("cost: Fit needs at least one observation")
	}
	X := make([][nFeatures]float64, len(obs))
	y := make([]float64, len(obs))
	for i, o := range obs {
		X[i] = base.Features(o.Spec)
		y[i] = o.Seconds
	}

	// A feature column that is zero over every observation carries no
	// information about its coefficient: drop it and keep the base value.
	var active [nFeatures]bool
	nActive := 0
	for k := 0; k < nFeatures; k++ {
		for i := range X {
			if math.Abs(X[i][k]) > 1e-12 {
				active[k] = true
				nActive++
				break
			}
		}
	}

	coeffs := base.Coeffs()
	if nActive > 0 {
		// Normal equations over the active columns, with a tiny ridge so
		// nearly collinear scenario sets still solve.
		idx := make([]int, 0, nActive)
		for k := 0; k < nFeatures; k++ {
			if active[k] {
				idx = append(idx, k)
			}
		}
		// Columns span very different magnitudes (the intercept is 1, an
		// input column can be thousands of MB): normalize each active
		// column to unit Euclidean norm so the ridge biases them equally
		// and the normal equations stay well conditioned, then unscale
		// the solution.
		scale := make([]float64, nActive)
		for a, k := range idx {
			s := 0.0
			for i := range X {
				s += X[i][k] * X[i][k]
			}
			scale[a] = math.Sqrt(s)
		}
		ata := make([][]float64, nActive)
		atb := make([]float64, nActive)
		for a := range ata {
			ata[a] = make([]float64, nActive)
		}
		for i := range X {
			for a, ka := range idx {
				atb[a] += X[i][ka] / scale[a] * y[i]
				for b, kb := range idx {
					ata[a][b] += X[i][ka] / scale[a] * X[i][kb] / scale[b]
				}
			}
		}
		const ridge = 1e-10 // diagonals are 1 after normalization
		for a := range ata {
			ata[a][a] += ridge
		}
		sol, err := solveLinear(ata, atb)
		if err != nil {
			return FitResult{}, fmt.Errorf("cost: Fit: %w", err)
		}
		for a, k := range idx {
			coeffs[k] = sol[a] / scale[a]
			if coeffs[k] < 0 {
				coeffs[k] = 0
			}
		}
	}

	cfg := base
	cfg.JobOverhead = coeffs[0]
	cfg.HDFSRead = coeffs[1]
	cfg.HDFSWrite = coeffs[4]
	// Split lw+t and lr+lw into individual constants in the base
	// proportions. lw is shared by both sums; cap it at both so every
	// constant stays non-negative while the sums are reproduced exactly.
	split := 0.5
	if d := base.LocalWrite + base.Transfer; d > 0 {
		split = base.LocalWrite / d
	}
	lw := split * coeffs[2]
	if lw > coeffs[3] {
		lw = coeffs[3]
	}
	cfg.LocalWrite = lw
	cfg.Transfer = coeffs[2] - lw
	cfg.LocalRead = coeffs[3] - lw
	return FitResult{Config: cfg, Coeffs: cfg.Coeffs(), Fitted: active, N: len(obs)}, nil
}

// solveLinear solves a·x = b by Gaussian elimination with partial
// pivoting. a and b are overwritten.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-15 {
			return nil, fmt.Errorf("singular normal equations (column %d)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// MeanAbsRelError reports the mean |predicted − measured| / measured of
// JobCost(Gumbo) over the observations: the estimation-vs-actual error
// metric of the calibration report. Observations measured at (near)
// zero seconds are compared on absolute error against a 1µs floor.
func (c Config) MeanAbsRelError(obs []Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	total := 0.0
	for _, o := range obs {
		pred := c.JobCost(Gumbo, o.Spec)
		denom := o.Seconds
		if denom < 1e-6 {
			denom = 1e-6
		}
		total += math.Abs(pred-o.Seconds) / denom
	}
	return total / float64(len(obs))
}

// Package profile implements Hetis' Profiler (§5.1): it measures the
// simulated cluster at a small grid of operating points and fits the linear
// models the Dispatcher plans with —
//
//	τᵢ(t) = aᵢ·hᵢ(t) + bᵢ·gᵢ(t) + cᵢ        (Eq. 3, attention time)
//	ρᵢ(t) = γᵢ·dᵢ(t) + βᵢ                   (Eq. 4, transfer overhead)
//
// where hᵢ is the number of query heads on device i, gᵢ the bytes of KV
// cache they touch, and dᵢ the bytes moved between the primary worker and
// attention worker i. Like the paper, the fit uses an 8×8 grid of (h, g)
// samples per device; one grid evaluation corresponds to executing the
// Attention module once per configuration.
package profile

import (
	"fmt"
	"math"
	"slices"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/perf"
)

// AttnModel is the fitted per-device attention-time model (Eq. 3).
type AttnModel struct {
	A float64 // seconds per query head
	B float64 // seconds per byte of touched cache
	C float64 // fixed seconds per layer invocation
}

// Predict evaluates τ = A·heads + B·cacheBytes + C. Zero load costs zero.
func (m AttnModel) Predict(heads int, cacheBytes int64) float64 {
	if heads <= 0 {
		return 0
	}
	return m.A*float64(heads) + m.B*float64(cacheBytes) + m.C
}

// NetModel is the fitted transfer-overhead model (Eq. 4).
type NetModel struct {
	Gamma float64 // seconds per byte
	Beta  float64 // fixed seconds per transfer round
}

// Predict evaluates ρ = Gamma·bytes + Beta. Zero bytes cost zero (local
// computation involves no transfer).
func (m NetModel) Predict(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return m.Gamma*float64(bytes) + m.Beta
}

// Profile holds the fitted models for every device of a cluster, relative
// to a designated primary device for the network legs.
type Profile struct {
	Model   model.Config
	Primary hardware.DeviceID
	Attn    map[hardware.DeviceID]AttnModel
	Net     map[hardware.DeviceID]NetModel
	// AttnAccuracy and NetAccuracy are 1 − mean relative error on a
	// held-out grid, per device.
	AttnAccuracy map[hardware.DeviceID]float64
	NetAccuracy  map[hardware.DeviceID]float64
}

// The paper's profiling configuration: gridPoints sample values per axis
// (8 h-values × 8 g-values), over heads up to maxHeads and cache up to
// maxCacheBytes.
const (
	gridPoints    = 8
	maxHeads      = 4096
	maxCacheBytes = int64(4 << 30)
)

// Run profiles every device of the cluster against the ground-truth
// estimator and fits the linear models. primary designates the device whose
// links carry the scattered heads.
func Run(est *perf.Estimator, cluster *hardware.Cluster, primary hardware.DeviceID) (*Profile, error) {
	if cluster == nil || primary < 0 || int(primary) >= cluster.NumDevices() {
		return nil, fmt.Errorf("profile: primary device %d is not in the cluster", primary)
	}
	p := &Profile{
		Model:        est.Config(),
		Primary:      primary,
		Attn:         make(map[hardware.DeviceID]AttnModel, cluster.NumDevices()),
		Net:          make(map[hardware.DeviceID]NetModel, cluster.NumDevices()),
		AttnAccuracy: make(map[hardware.DeviceID]float64, cluster.NumDevices()),
		NetAccuracy:  make(map[hardware.DeviceID]float64, cluster.NumDevices()),
	}
	for _, dev := range cluster.Devices {
		am, aacc := fitAttn(est, dev.Spec)
		p.Attn[dev.ID] = am
		p.AttnAccuracy[dev.ID] = aacc

		nm, nacc := fitNet(est, cluster.Link(primary, dev.ID))
		p.Net[dev.ID] = nm
		p.NetAccuracy[dev.ID] = nacc
	}
	return p, nil
}

// fitAttn samples the ground-truth attention time on a grid and fits Eq. 3.
func fitAttn(est *perf.Estimator, spec hardware.GPUSpec) (AttnModel, float64) {
	n := gridPoints
	dc := est.Compile(spec, 1)
	var feats [][3]float64
	var ys []float64
	for i := 1; i <= n; i++ {
		h := i * maxHeads / n
		for j := 1; j <= n; j++ {
			g := int64(j) * maxCacheBytes / int64(n)
			y := dc.AttnDecodeTime(h, g)
			feats = append(feats, [3]float64{float64(h), float64(g), 1})
			ys = append(ys, y)
		}
	}
	coef := fitSlopes(feats, ys, 0, 1)
	m := AttnModel{A: coef[0], B: coef[1], C: coef[2]}

	// Held-out accuracy: mid-grid points not used for fitting.
	var relErr float64
	var count int
	for i := 1; i < n; i++ {
		h := i*maxHeads/n + maxHeads/(2*n)
		g := int64(i)*maxCacheBytes/int64(n) + maxCacheBytes/int64(2*n)
		truth := dc.AttnDecodeTime(h, g)
		if truth <= 0 {
			continue
		}
		relErr += math.Abs(m.Predict(h, g)-truth) / truth
		count++
	}
	acc := 1.0
	if count > 0 {
		acc = 1 - relErr/float64(count)
	}
	return m, acc
}

// fitNet samples the link and fits Eq. 4. The volume grid covers the bytes
// implied by scattering 1..maxHeads heads (Eq. 4's d = (2+2/r)·h model).
func fitNet(est *perf.Estimator, link hardware.LinkSpec) (NetModel, float64) {
	n := gridPoints
	var feats [][3]float64
	var ys []float64
	for i := 1; i <= n; i++ {
		h := i * maxHeads / n
		bytes := est.HeadScatterBytes(h)
		y := perf.P2PTime(link, bytes)
		feats = append(feats, [3]float64{float64(bytes), 1, 0})
		ys = append(ys, y)
	}
	coef := fitSlopes(feats, ys, 0)
	m := NetModel{Gamma: coef[0], Beta: coef[1]}

	var relErr float64
	var count int
	for i := 1; i < n; i++ {
		h := i*maxHeads/n + maxHeads/(2*n)
		bytes := est.HeadScatterBytes(h)
		truth := perf.P2PTime(link, bytes)
		if truth <= 0 {
			continue
		}
		relErr += math.Abs(m.Predict(bytes)-truth) / truth
		count++
	}
	acc := 1.0
	if count > 0 {
		acc = 1 - relErr/float64(count)
	}
	return m, acc
}

// fitSlopes is leastSquares3 with the weights of the slope features held
// at or above zero, as the dispatcher requires: while some slope comes out
// negative, its feature is zeroed (feats is modified) and the rest refit,
// leastSquares3 giving a dead column weight zero.
func fitSlopes(feats [][3]float64, ys []float64, slopes ...int) [3]float64 {
	for {
		coef := leastSquares3(feats, ys)
		neg := slices.IndexFunc(slopes, func(k int) bool { return coef[k] < 0 })
		if neg < 0 {
			return coef
		}
		for i := range feats {
			feats[i][slopes[neg]] = 0
		}
	}
}

// leastSquares3 fits y ≈ w₀f₀ + w₁f₁ + w₂f₂ by normal equations. Features
// that are identically zero get weight zero.
func leastSquares3(feats [][3]float64, ys []float64) [3]float64 {
	var xtx [3][3]float64
	var xty [3]float64
	for k, f := range feats {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				xtx[i][j] += f[i] * f[j]
			}
			xty[i] += f[i] * ys[k]
		}
	}
	// Detect dead columns to keep the system well-posed.
	live := [3]bool{}
	for i := 0; i < 3; i++ {
		live[i] = xtx[i][i] > 0
	}
	// Gaussian elimination with partial pivoting on the live submatrix.
	var idx []int
	for i := 0; i < 3; i++ {
		if live[i] {
			idx = append(idx, i)
		}
	}
	n := len(idx)
	a := make([][]float64, n)
	b := make([]float64, n)
	for r, i := range idx {
		a[r] = make([]float64, n)
		for c, j := range idx {
			a[r][c] = xtx[i][j]
		}
		b[r] = xty[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-30 {
			continue
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var out [3]float64
	for r, i := range idx {
		if math.Abs(a[r][r]) > 1e-30 {
			out[i] = b[r] / a[r][r]
		}
	}
	return out
}

// PerturbParam scales a single named parameter ("a", "b", "c", "gamma",
// "beta") on every device by the given factor, leaving the rest intact.
// Used for the per-parameter sensitivity sweep of Fig. 16(b).
func (p *Profile) PerturbParam(param string, factor float64) (*Profile, error) {
	out := &Profile{
		Model:        p.Model,
		Primary:      p.Primary,
		Attn:         make(map[hardware.DeviceID]AttnModel, len(p.Attn)),
		Net:          make(map[hardware.DeviceID]NetModel, len(p.Net)),
		AttnAccuracy: p.AttnAccuracy,
		NetAccuracy:  p.NetAccuracy,
	}
	for id, m := range p.Attn {
		out.Attn[id] = m
	}
	for id, m := range p.Net {
		out.Net[id] = m
	}
	for id := range out.Attn {
		m := out.Attn[id]
		switch param {
		case "a":
			m.A *= factor
		case "b":
			m.B *= factor
		case "c":
			m.C *= factor
		case "gamma", "beta":
			// handled below
		default:
			return nil, fmt.Errorf("profile: unknown parameter %q", param)
		}
		out.Attn[id] = m
	}
	for id := range out.Net {
		m := out.Net[id]
		switch param {
		case "gamma":
			m.Gamma *= factor
		case "beta":
			m.Beta *= factor
		}
		out.Net[id] = m
	}
	return out, nil
}

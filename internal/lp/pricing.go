package lp

// Steepest-edge pricing layer for the revised simplex (DESIGN.md §14).
//
// A full Dantzig scan would recompute the dual vector and every column's
// reduced cost on every pivot — O(nnz(A)) per iteration regardless of how
// little the basis changed. The pricer instead maintains reduced costs d[]
// incrementally from the pivot row of B⁻¹A (assembled sparsely via the CSR
// mirror), prices entering candidates from projected steepest-edge
// reference weights γ[] (devex), and scans candidates in rotating
// partial-pricing sections rather than the whole column range.
//
// Exactness discipline: the incremental d[] drifts with floating-point
// error, so it is recomputed exactly (and the γ reference framework reset
// to the current basis) on every refactorization, whenever Bland's
// anti-cycling rule is driving, and — critically — before Optimal or
// Unbounded is ever returned. The pivot loops therefore terminate on an
// optimality certificate computed from exact reduced costs; the incremental
// state only decides the order pivots happen in.

// pricer holds the incremental pricing state for one solve phase.
type pricer struct {
	d     []float64 // reduced costs per column (0 for basic)
	gamma []float64 // devex reference weights, ≥ 1

	// Sparse pivot-row accumulator: acc[j] = Σ_i rho_i·a_ij over the rows
	// in rho's support, epoch-stamped so clearing is O(touched).
	accVal   []float64
	accMark  []int64
	accEpoch int64
	accCols  []int

	cursor    int // partial-pricing rotating cursor
	lastEpoch int // rv.factorEpoch the last exact refresh saw
}

func newPricer(f *spForm) *pricer {
	p := &pricer{}
	p.reset(f)
	return p
}

// reset sizes the pricer for f, retaining capacity (pricers are pooled
// alongside the rest of the solve scratch).
func (p *pricer) reset(f *spForm) {
	if cap(p.d) < f.n {
		p.d = make([]float64, f.n)
		p.gamma = make([]float64, f.n)
		p.accVal = make([]float64, f.n)
		p.accMark = make([]int64, f.n)
		p.accCols = make([]int, 0, f.n)
	}
	p.d = p.d[:f.n]
	p.gamma = p.gamma[:f.n]
	p.accVal = p.accVal[:f.n]
	p.accMark = p.accMark[:f.n]
	p.accCols = p.accCols[:0]
	p.accEpoch = 0
	for j := range p.accMark {
		p.accMark[j] = 0
	}
	p.cursor = 0
	p.invalidate()
}

// invalidate forces an exact refresh at the next pricing decision. Called at
// phase boundaries (costs change) and after pivots made behind the pricer's
// back (artificial eviction).
func (p *pricer) invalidate() { p.lastEpoch = -1 }

// refresh recomputes d[] exactly from the current basis (one BTRAN plus a
// full column scan) and resets the steepest-edge reference framework γ ← 1.
func (p *pricer) refresh(rv *revised) {
	rv.computeY()
	f := rv.f
	for j := 0; j < f.n; j++ {
		if rv.isBasic[j] {
			p.d[j] = 0
		} else {
			p.d[j] = rv.cost[j] - f.colDot(j, rv.y)
		}
		p.gamma[j] = 1
	}
	p.lastEpoch = rv.factorEpoch
}

// ensureFresh refreshes when a refactorization (or invalidate) happened
// since the last exact recompute.
func (p *pricer) ensureFresh(rv *revised) {
	if p.lastEpoch != rv.factorEpoch {
		p.refresh(rv)
	}
}

// rowCombine assembles the pivot row acc[j] = Σ_i rho_i·a_ij sparsely: only
// CSR rows in rho's support are walked, and only touched columns appear in
// accCols. rho is typically B⁻ᵀe_r, so acc is row r of B⁻¹A.
func (p *pricer) rowCombine(f *spForm, rho []float64) {
	p.accEpoch++
	p.accCols = p.accCols[:0]
	for i, rv := range rho {
		if rv == 0 {
			continue
		}
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := int(f.colIdx[k])
			if p.accMark[j] != p.accEpoch {
				p.accMark[j] = p.accEpoch
				p.accVal[j] = 0
				p.accCols = append(p.accCols, j)
			}
			p.accVal[j] += f.rowVals[k] * rv
		}
	}
}

// applyPivot folds the pivot "column q enters, column leaveCol leaves, pivot
// element alphaR" into d[] and γ[]. rowCombine must hold the pivot row.
// Touched columns get the textbook updates
//
//	d_j ← d_j − (d_q/α_r)·α_rj    γ_j ← max(γ_j, (α_rj/α_r)²·γ_q)
//
// and the leaving column re-enters the nonbasic pool with d = −d_q/α_r,
// γ = max(γ_q/α_r², 1). Untouched columns have α_rj = 0 and keep both.
func (p *pricer) applyPivot(q, leaveCol int, alphaR float64) {
	thetaD := p.d[q] / alphaR
	gq := p.gamma[q]
	inv2 := 1 / (alphaR * alphaR)
	for _, j := range p.accCols {
		if j == q {
			continue
		}
		aj := p.accVal[j]
		p.d[j] -= thetaD * aj
		if g := aj * aj * inv2 * gq; g > p.gamma[j] {
			p.gamma[j] = g
		}
	}
	p.d[leaveCol] = -thetaD
	if g := gq * inv2; g > 1 {
		p.gamma[leaveCol] = g
	} else {
		p.gamma[leaveCol] = 1
	}
	p.d[q] = 0
	p.gamma[q] = 1
}

// preparePivotRow computes rho = B⁻ᵀe_leave into rv.rho and assembles the
// pivot row. The primal loop calls it before pivotUpdate (the dual loop
// already owns rho from its ratio test and calls rowCombine directly).
func (p *pricer) preparePivotRow(rv *revised, leave int) {
	for i := range rv.rho {
		rv.rho[i] = 0
	}
	rv.rho[leave] = 1
	rv.btran(rv.rho)
	p.rowCombine(rv.f, rv.rho)
}

// priceEntering picks the entering column for the primal loop. Under Bland
// it refreshes and takes the first negative reduced cost (exact, finite
// termination). Otherwise it partial-prices by steepest-edge score; an
// apparently optimal scan triggers an exact refresh and one full scan, so
// -1 (optimality) is always certified on exact reduced costs.
func (p *pricer) priceEntering(rv *revised, bland bool) int {
	if bland {
		p.refresh(rv)
		return p.firstNegative(rv)
	}
	p.ensureFresh(rv)
	if e := p.sectionScan(rv); e >= 0 {
		return e
	}
	p.refresh(rv)
	return p.bestFull(rv)
}

// firstNegative is Bland's rule over exact reduced costs.
func (p *pricer) firstNegative(rv *revised) int {
	for j := 0; j < rv.f.n; j++ {
		if rv.isBasic[j] || rv.blocked[j] {
			continue
		}
		if p.d[j] < -epsReduced {
			return j
		}
	}
	return -1
}

// sectionScan walks rotating partial-pricing sections and returns the best
// steepest-edge candidate in the first section that has one.
func (p *pricer) sectionScan(rv *revised) int {
	n := rv.f.n
	sec := n / 8
	if sec < 32 {
		sec = 32
	}
	for scanned := 0; scanned < n; {
		if p.cursor >= n {
			p.cursor = 0
		}
		end := p.cursor + sec
		if end > n {
			end = n
		}
		best, bestScore := -1, 0.0
		for j := p.cursor; j < end; j++ {
			if rv.isBasic[j] || rv.blocked[j] {
				continue
			}
			dj := p.d[j]
			if dj >= -epsReduced {
				continue
			}
			if score := dj * dj / p.gamma[j]; score > bestScore {
				bestScore, best = score, j
			}
		}
		scanned += end - p.cursor
		p.cursor = end
		if best >= 0 {
			return best
		}
	}
	return -1
}

// bestFull scans every column for the best steepest-edge score.
func (p *pricer) bestFull(rv *revised) int {
	best, bestScore := -1, 0.0
	for j := 0; j < rv.f.n; j++ {
		if rv.isBasic[j] || rv.blocked[j] {
			continue
		}
		dj := p.d[j]
		if dj >= -epsReduced {
			continue
		}
		if score := dj * dj / p.gamma[j]; score > bestScore {
			bestScore, best = score, j
		}
	}
	return best
}

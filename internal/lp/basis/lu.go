package basis

import (
	"math"
	"sort"
)

// LU is the sparse LU basis factorization. Factorization is left-looking in the
// Gilbert–Peierls style: columns are processed in a static Markowitz order
// (fewest nonzeros first), each new column is solved against the partial L
// with value-skipping sparse triangular work, and its pivot row is chosen by
// threshold partial pivoting (any row within tauLU of the largest magnitude
// qualifies) with a Markowitz row-count tie-break, trading a bounded loss of
// stability for sparsity in L and U. Should the threshold ordering still hit
// a vanishing pivot, Factorize retries once with pure partial pivoting
// (tau = 1) before declaring the basis singular.
//
// Simplex pivots are absorbed as eta matrices layered on the fixed LU
// factors (eta-on-LU): FTRAN solves through L and U and then applies the
// etas in append order, BTRAN applies transposed etas in reverse and then
// solves the transposed factors. The LU factors themselves never drift —
// refactorization both compacts the eta file and rebuilds from the clean
// column data, which is what pushes the numerical breakdown frontier past
// the pure product-form eta file's.
type LU struct {
	m int

	p    []int32 // step -> original row pivoted there
	pinv []int32 // original row -> step (-1 while unpivoted)
	ord  []int32 // step -> row slot processed there

	// L: unit lower triangular, sub-diagonal entries per step column, rows
	// in original row space.
	lPtr []int32
	lRow []int32
	lVal []float64
	// U: upper triangular, off-diagonal entries per step column, rows in
	// step space (t < k); diagonal kept separately.
	uPtr  []int32
	uRow  []int32
	uVal  []float64
	uDiag []float64

	file    etaFile
	updates int
	health  Stats

	// Scratch.
	w       []float64
	z       []float64
	inw     []bool
	touched []int32
	rowCnt  []int32
	order   []int32
}

// tauLU is the threshold-pivoting relaxation: a row qualifies as pivot when
// its magnitude is within this factor of the column maximum.
const tauLU = 0.1

// NewLU returns an LU for m constraint rows.
func NewLU(m int) *LU {
	e := &LU{}
	e.Reset(m)
	return e
}

// Reset prepares the LU for a problem with m rows, retaining capacity.
func (e *LU) Reset(m int) {
	e.m = m
	e.file.reset()
	e.updates = 0
	if cap(e.p) < m {
		e.p = make([]int32, m)
		e.pinv = make([]int32, m)
		e.ord = make([]int32, m)
		e.uDiag = make([]float64, m)
		e.w = make([]float64, m)
		e.z = make([]float64, m)
		e.inw = make([]bool, m)
		e.rowCnt = make([]int32, m)
		e.order = make([]int32, m)
	}
	e.p = e.p[:m]
	e.pinv = e.pinv[:m]
	e.ord = e.ord[:m]
	e.uDiag = e.uDiag[:m]
	e.w = e.w[:m]
	e.z = e.z[:m]
	e.inw = e.inw[:m]
	e.rowCnt = e.rowCnt[:m]
	e.order = e.order[:m]
	if len(e.lPtr) == 0 {
		e.lPtr = append(e.lPtr, 0)
		e.uPtr = append(e.uPtr, 0)
	}
	e.lPtr = e.lPtr[:1]
	e.uPtr = e.uPtr[:1]
	e.lRow = e.lRow[:0]
	e.lVal = e.lVal[:0]
	e.uRow = e.uRow[:0]
	e.uVal = e.uVal[:0]
	e.touched = e.touched[:0]
}

// Factorize rebuilds the factorization for the basis whose columns are cols
// (one constraint-column index per row slot, in slot order) and discards
// all pending updates. The slot order is preserved: slots[i] is always
// cols[i]; permutations stay inside the factors. It fails when the
// column set is numerically singular (the second result is false).
func (e *LU) Factorize(a Columns, cols []int) ([]int, bool) {
	m := a.NumRows()
	e.Reset(m)
	if m == 0 {
		return cols, true
	}

	// Static Markowitz data: row counts over the basis columns, and the
	// column processing order (fewest nonzeros first, slot index ties).
	for i := range e.rowCnt {
		e.rowCnt[i] = 0
	}
	for _, j := range cols {
		rows, _ := a.Col(j)
		for _, r := range rows {
			e.rowCnt[r]++
		}
	}
	for i := range e.order {
		e.order[i] = int32(i)
	}
	sort.Slice(e.order, func(x, y int) bool {
		sx, sy := e.order[x], e.order[y]
		rx, _ := a.Col(cols[sx])
		ry, _ := a.Col(cols[sy])
		if len(rx) != len(ry) {
			return len(rx) < len(ry)
		}
		return sx < sy
	})

	if e.factorizeTau(a, cols, tauLU) {
		return cols, true
	}
	// Threshold pivoting chased sparsity into a vanishing pivot; retry with
	// pure partial pivoting before giving up.
	e.health.TauRetries++
	if e.factorizeTau(a, cols, 1.0) {
		return cols, true
	}
	return nil, false
}

// factorizeTau runs one left-looking factorization pass with the given
// pivot threshold. On failure the factors are left in an undefined state;
// the caller either retries (which resets) or reports the basis singular.
func (e *LU) factorizeTau(a Columns, cols []int, tau float64) bool {
	m := e.m
	e.lPtr = e.lPtr[:1]
	e.uPtr = e.uPtr[:1]
	e.lRow = e.lRow[:0]
	e.lVal = e.lVal[:0]
	e.uRow = e.uRow[:0]
	e.uVal = e.uVal[:0]
	e.file.reset()
	e.updates = 0
	for i := 0; i < m; i++ {
		e.pinv[i] = -1
		e.w[i] = 0
		e.inw[i] = false
	}
	e.touched = e.touched[:0]

	for k := 0; k < m; k++ {
		slot := e.order[k]
		rows, vals := a.Col(cols[slot])
		for i, r := range rows {
			if !e.inw[r] {
				e.inw[r] = true
				e.touched = append(e.touched, int32(r))
			}
			e.w[r] += vals[i]
		}

		// Solve L·x = column against the partial factors, skipping steps
		// whose pivot row carries a zero (the hyper-sparse fast path: aux
		// columns are single entries, so most steps are skipped outright).
		for t := 0; t < k; t++ {
			c := e.w[e.p[t]]
			if c == 0 {
				continue
			}
			lo, hi := e.lPtr[t], e.lPtr[t+1]
			for i := lo; i < hi; i++ {
				r := e.lRow[i]
				if !e.inw[r] {
					e.inw[r] = true
					e.touched = append(e.touched, r)
				}
				e.w[r] -= e.lVal[i] * c
			}
		}

		// Threshold partial pivoting with a Markowitz row-count tie-break.
		maxAbs := 0.0
		for _, r := range e.touched {
			if e.pinv[r] >= 0 {
				continue
			}
			if v := math.Abs(e.w[r]); v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs <= epsFactor {
			return false
		}
		piv, pivCnt := int32(-1), int32(0)
		thresh := tau * maxAbs
		for _, r := range e.touched {
			if e.pinv[r] >= 0 {
				continue
			}
			if math.Abs(e.w[r]) < thresh {
				e.health.PivotRejections++
				continue
			}
			if piv < 0 || e.rowCnt[r] < pivCnt || (e.rowCnt[r] == pivCnt && r < piv) {
				piv, pivCnt = r, e.rowCnt[r]
			}
		}
		d := e.w[piv]

		// Record U (pivoted rows, step space) and L (unpivoted rows over
		// the pivot) columns, then clear the work vector.
		for _, r := range e.touched {
			v := e.w[r]
			e.w[r] = 0
			e.inw[r] = false
			if v == 0 || r == piv {
				continue
			}
			if t := e.pinv[r]; t >= 0 {
				e.uRow = append(e.uRow, t)
				e.uVal = append(e.uVal, v)
			} else {
				e.lRow = append(e.lRow, r)
				e.lVal = append(e.lVal, v/d)
			}
		}
		e.touched = e.touched[:0]
		e.uPtr = append(e.uPtr, int32(len(e.uRow)))
		e.lPtr = append(e.lPtr, int32(len(e.lRow)))
		e.uDiag[k] = d
		e.p[k] = piv
		e.pinv[piv] = int32(k)
		e.ord[k] = slot
	}
	return true
}

// Ftran solves B·x = v in place: v enters in row space and leaves in slot
// space (x[i] is the value of the slot-i basic column).
func (e *LU) Ftran(v []float64) {
	m := e.m
	// L solve in row space (value-skipping).
	for k := 0; k < m; k++ {
		c := v[e.p[k]]
		if c == 0 {
			continue
		}
		lo, hi := e.lPtr[k], e.lPtr[k+1]
		for i := lo; i < hi; i++ {
			v[e.lRow[i]] -= e.lVal[i] * c
		}
	}
	// Gather into step space and backsolve U column-wise.
	z := e.z
	for k := 0; k < m; k++ {
		z[k] = v[e.p[k]]
	}
	for k := m - 1; k >= 0; k-- {
		x := z[k]
		if x != 0 {
			x /= e.uDiag[k]
			lo, hi := e.uPtr[k], e.uPtr[k+1]
			for i := lo; i < hi; i++ {
				z[e.uRow[i]] -= e.uVal[i] * x
			}
		}
		z[k] = x
	}
	for k := 0; k < m; k++ {
		v[e.ord[k]] = z[k]
	}
	e.file.ftran(v)
}

// Btran solves Bᵀ·y = v in place: v enters in slot space and leaves in row
// space.
func (e *LU) Btran(v []float64) {
	e.file.btran(v)
	m := e.m
	z := e.z
	for k := 0; k < m; k++ {
		z[k] = v[e.ord[k]]
	}
	// Uᵀ forward solve (column-wise gather).
	for k := 0; k < m; k++ {
		g := z[k]
		lo, hi := e.uPtr[k], e.uPtr[k+1]
		for i := lo; i < hi; i++ {
			g -= e.uVal[i] * z[e.uRow[i]]
		}
		z[k] = g / e.uDiag[k]
	}
	// Lᵀ backward solve: L column k's rows pivot at later steps.
	for k := m - 1; k >= 0; k-- {
		g := z[k]
		lo, hi := e.lPtr[k], e.lPtr[k+1]
		for i := lo; i < hi; i++ {
			g -= e.lVal[i] * z[e.pinv[e.lRow[i]]]
		}
		z[k] = g
	}
	for k := 0; k < m; k++ {
		v[e.p[k]] = z[k]
	}
}

// Update absorbs the pivot "alpha's column becomes basic in slot r", where
// alpha is this LU's own Ftran of the entering column, as one eta on top of
// the fixed factors.
func (e *LU) Update(r int, alpha []float64) {
	e.file.append(r, alpha)
	e.updates++
	e.health.noteEta(e.file.len())
}

// Updates reports how many pivots have been absorbed since the last
// Factorize.
func (e *LU) Updates() int { return e.updates }

// Due reports that enough updates accumulated that the caller should
// refactorize (to bound fill-in and floating-point drift).
func (e *LU) Due() bool { return e.updates >= refactorEvery }

// Health exposes the numerical-health counters. The returned pointer stays
// valid for the LU's lifetime; see Stats for the clearing contract.
func (e *LU) Health() *Stats { return &e.health }

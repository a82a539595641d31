package basis

import "math"

// LU is the sparse LU basis factorization. Factorization is left-looking in the
// Gilbert–Peierls style: columns are processed in a static Markowitz order
// (fewest nonzeros first), each new column is solved against the partial L
// by visiting, in step order, only the steps its nonzeros reach, and its
// pivot row is chosen by threshold partial pivoting (any row within tauLU of
// the largest magnitude qualifies) with a Markowitz row-count tie-break,
// trading a bounded loss of stability for sparsity in L and U. Should the
// threshold ordering still hit a vanishing pivot, Factorize retries once
// with pure partial pivoting (tau = 1) before declaring the basis singular.
// Factorization costs O(m) set-up plus the nonzeros it touches (each step it
// visits costs a heap operation); FTRAN and BTRAN still make several O(m)
// passes (gather, scatter, the U solves), and their L solves visit only the
// steps whose L column is nonempty.
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
	// lSteps lists, ascending, the steps whose L column is nonempty: the
	// only steps the L and Lᵀ solves have work for.
	lSteps []int32
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
	reach   []int32 // min-heap of the steps the current column reaches
	rowCnt  []int32
	colLen  []int32 // per slot: nonzeros of its basis column
	lenPos  []int32 // counting-sort buckets over column lengths 0..m
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
		e.colLen = make([]int32, m)
		e.lenPos = make([]int32, m+2)
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
	e.colLen = e.colLen[:m]
	e.lenPos = e.lenPos[:m+2]
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
	e.lSteps = e.lSteps[:0]
	e.touched = e.touched[:0]
	e.reach = e.reach[:0]
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
	// column processing order (fewest nonzeros first, slot index ties) by a
	// counting sort on column length.
	clear(e.rowCnt)
	for s, j := range cols {
		rows, _ := a.Col(j)
		for _, r := range rows {
			e.rowCnt[r]++
		}
		e.colLen[s] = int32(len(rows))
	}
	clear(e.lenPos)
	for _, n := range e.colLen {
		e.lenPos[n+1]++
	}
	for n := 1; n < len(e.lenPos); n++ {
		e.lenPos[n] += e.lenPos[n-1]
	}
	for s, n := range e.colLen {
		e.order[e.lenPos[n]] = int32(s)
		e.lenPos[n]++
	}

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
	e.lSteps = e.lSteps[:0]
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
			e.touch(int32(r))
			e.w[r] += vals[i]
		}

		// Solve L·x = column against the partial factors. Only a step whose
		// pivot row the column reaches can carry a nonzero, and an L column
		// holds rows that pivot after its own step, so popping the reached
		// steps from a min-heap visits them in step order: the visits of a
		// scan over every earlier step, minus the ones that do nothing.
		for len(e.reach) > 0 {
			t := e.popReach()
			c := e.w[e.p[t]]
			if c == 0 {
				continue
			}
			lo, hi := e.lPtr[t], e.lPtr[t+1]
			for i := lo; i < hi; i++ {
				r := e.lRow[i]
				e.touch(r)
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
		if e.lPtr[k+1] > e.lPtr[k] {
			e.lSteps = append(e.lSteps, int32(k))
		}
		e.uDiag[k] = d
		e.p[k] = piv
		e.pinv[piv] = int32(k)
		e.ord[k] = slot
	}
	return true
}

// touch adds row r to the work vector's support on first contact; a row
// already pivoted puts its step on the reach heap.
func (e *LU) touch(r int32) {
	if e.inw[r] {
		return
	}
	e.inw[r] = true
	e.touched = append(e.touched, r)
	if t := e.pinv[r]; t >= 0 {
		e.pushReach(t)
	}
}

// pushReach adds step t to the reach min-heap.
func (e *LU) pushReach(t int32) {
	h := append(e.reach, t)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= t {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = t
	e.reach = h
}

// popReach removes and returns the smallest step on the reach heap.
func (e *LU) popReach() int32 {
	h := e.reach
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if last <= h[c] {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.reach = h
	return top
}

// Ftran solves B·x = v in place: v enters in row space and leaves in slot
// space (x[i] is the value of the slot-i basic column).
func (e *LU) Ftran(v []float64) {
	m := e.m
	// L solve in row space over the steps with an L column (value-skipping).
	for _, k := range e.lSteps {
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
	// Uᵀ forward solve (column-wise gather). Every value is divided, zeros
	// included: a branch to skip the divide measured slower.
	for k := 0; k < m; k++ {
		g := z[k]
		lo, hi := e.uPtr[k], e.uPtr[k+1]
		for i := lo; i < hi; i++ {
			g -= e.uVal[i] * z[e.uRow[i]]
		}
		z[k] = g / e.uDiag[k]
	}
	// Lᵀ backward solve over the steps with an L column: L column k's rows
	// pivot at later steps.
	for s := len(e.lSteps) - 1; s >= 0; s-- {
		k := e.lSteps[s]
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

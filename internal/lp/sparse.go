package lp

// Sparse standard computational form of the revised simplex: rows
// normalized to b ≥ 0, then one slack column per ≤ row, a surplus and an
// artificial column per ≥ row, and an artificial column per = row, so the
// slack/artificial columns form an immediately feasible phase-1 basis.

// spForm is a Problem in sparse column (CSC) standard form: A x = b, x ≥ 0,
// b ≥ 0, minimize cᵀx.
type spForm struct {
	m, n  int // rows, total columns (vars + slacks + artificials)
	nOrig int // structural (user) columns
	nReal int // columns excluding artificials

	colPtr []int // n+1 offsets into rowIdx/vals
	rowIdx []int
	vals   []float64

	// CSR mirror of the same matrix, built on demand (ensureCSR) for the
	// pricing layer's sparse pivot-row assembly.
	rowPtr  []int
	colIdx  []int32
	rowVals []float64

	b    []float64 // right-hand sides, ≥ 0
	cost []float64 // minimize-sense phase-2 costs

	artificial []bool    // per column
	auxCol     []int     // per row: canonical auxiliary column
	auxSign    []float64 // per row: sign of that column's coefficient
	rowSign    []float64 // per row: normalization sign vs. the stated row
	colOwner   []int     // per column: owning row for aux columns, -1 otherwise
	initBasis  []int     // phase-1 starting basis (slack or artificial per row)

	maxIters int
}

// col returns column j's nonzero rows and values.
func (f *spForm) col(j int) ([]int, []float64) {
	lo, hi := f.colPtr[j], f.colPtr[j+1]
	return f.rowIdx[lo:hi], f.vals[lo:hi]
}

// ensureCSR transposes the CSC storage into row-major form. Only the
// steepest-edge pricer needs row access, so the transpose is deferred until
// a pricer is attached.
func (f *spForm) ensureCSR() {
	if f.rowPtr != nil {
		return
	}
	f.rowPtr = make([]int, f.m+1)
	for _, r := range f.rowIdx {
		f.rowPtr[r+1]++
	}
	for i := 0; i < f.m; i++ {
		f.rowPtr[i+1] += f.rowPtr[i]
	}
	f.colIdx = make([]int32, len(f.rowIdx))
	f.rowVals = make([]float64, len(f.vals))
	next := append([]int(nil), f.rowPtr[:f.m]...)
	for j := 0; j < f.n; j++ {
		lo, hi := f.colPtr[j], f.colPtr[j+1]
		for k := lo; k < hi; k++ {
			r := f.rowIdx[k]
			f.colIdx[next[r]] = int32(j)
			f.rowVals[next[r]] = f.vals[k]
			next[r]++
		}
	}
}

// NumRows implements basis.Columns.
func (f *spForm) NumRows() int { return f.m }

// Col implements basis.Columns.
func (f *spForm) Col(j int) ([]int, []float64) { return f.col(j) }

// scatterCol expands column j into the dense vector x (which must be
// zeroed by the caller where required).
func (f *spForm) scatterCol(j int, x []float64) {
	rows, vals := f.col(j)
	for k, r := range rows {
		x[r] = vals[k]
	}
}

// colDot returns the dot product of column j with the dense vector y.
func (f *spForm) colDot(j int, y []float64) float64 {
	rows, vals := f.col(j)
	s := 0.0
	for k, r := range rows {
		s += vals[k] * y[r]
	}
	return s
}

// newSpForm converts a Problem to sparse standard form.
func newSpForm(p *Problem) *spForm {
	m := len(p.rows)
	nOrig := len(p.names)

	slacks, arts := 0, 0
	for _, r := range p.rows {
		rel := r.rel
		if r.rhs < 0 {
			rel = flipRel(rel)
		}
		switch rel {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}
	n := nOrig + slacks + arts

	f := &spForm{
		m: m, n: n,
		nOrig:      nOrig,
		nReal:      nOrig + slacks,
		b:          make([]float64, m),
		cost:       make([]float64, n),
		artificial: make([]bool, n),
		auxCol:     make([]int, m),
		auxSign:    make([]float64, m),
		rowSign:    make([]float64, m),
		colOwner:   make([]int, n),
		initBasis:  make([]int, m),
		maxIters:   p.maxIters,
	}
	if f.maxIters == 0 {
		f.maxIters = 200 * (m + n + 10)
	}
	for j := range f.colOwner {
		f.colOwner[j] = -1
	}

	// Accumulate structural entries column-wise (duplicate terms in a row
	// are summed).
	type rowVal struct {
		row int
		val float64
	}
	structural := make([][]rowVal, nOrig)
	slackCol := nOrig
	artCol := nOrig + slacks
	rowAcc := map[int]float64{}
	for i, r := range p.rows {
		sign := 1.0
		rel := r.rel
		if r.rhs < 0 {
			sign = -1
			rel = flipRel(rel)
		}
		clear(rowAcc)
		for _, term := range r.terms {
			rowAcc[int(term.Var)] += sign * term.Coef
		}
		for v, c := range rowAcc {
			if c != 0 {
				structural[v] = append(structural[v], rowVal{row: i, val: c})
			}
		}
		f.b[i] = sign * r.rhs
		f.rowSign[i] = sign

		switch rel {
		case LE:
			f.auxCol[i], f.auxSign[i] = slackCol, 1
			f.colOwner[slackCol] = i
			f.initBasis[i] = slackCol
			slackCol++
		case GE:
			f.auxCol[i], f.auxSign[i] = slackCol, -1
			f.colOwner[slackCol] = i
			slackCol++
			f.artificial[artCol] = true
			f.colOwner[artCol] = i
			f.initBasis[i] = artCol
			artCol++
		case EQ:
			f.auxCol[i], f.auxSign[i] = artCol, 1
			f.artificial[artCol] = true
			f.colOwner[artCol] = i
			f.initBasis[i] = artCol
			artCol++
		}
	}

	// Assemble CSC: structural columns carry their accumulated rows;
	// every auxiliary column is a single ±e_row entry.
	nnz := 0
	for _, c := range structural {
		nnz += len(c)
	}
	nnz += slacks + arts
	f.colPtr = make([]int, n+1)
	f.rowIdx = make([]int, 0, nnz)
	f.vals = make([]float64, 0, nnz)
	for j := 0; j < nOrig; j++ {
		f.colPtr[j] = len(f.rowIdx)
		for _, rv := range structural[j] {
			f.rowIdx = append(f.rowIdx, rv.row)
			f.vals = append(f.vals, rv.val)
		}
	}
	for j := nOrig; j < n; j++ {
		f.colPtr[j] = len(f.rowIdx)
		i := f.colOwner[j]
		v := 1.0
		if !f.artificial[j] && f.auxCol[i] == j {
			v = f.auxSign[i] // −1 for a surplus column
		}
		f.rowIdx = append(f.rowIdx, i)
		f.vals = append(f.vals, v)
	}
	f.colPtr[n] = len(f.rowIdx)

	// Structural columns may have unsorted row order from map iteration;
	// sort each for deterministic numerics.
	for j := 0; j < nOrig; j++ {
		lo, hi := f.colPtr[j], f.colPtr[j+1]
		insertionSortByRow(f.rowIdx[lo:hi], f.vals[lo:hi])
	}

	// Phase-2 costs, minimize-normalized.
	for j := 0; j < nOrig; j++ {
		c := p.obj[j]
		if p.sense == Maximize {
			c = -c
		}
		f.cost[j] = c
	}
	return f
}

// insertionSortByRow co-sorts (rows, vals) by row index; columns are short,
// so insertion sort beats the allocation cost of sort.Slice.
func insertionSortByRow(rows []int, vals []float64) {
	for i := 1; i < len(rows); i++ {
		r, v := rows[i], vals[i]
		j := i - 1
		for j >= 0 && rows[j] > r {
			rows[j+1], vals[j+1] = rows[j], vals[j]
			j--
		}
		rows[j+1], vals[j+1] = r, v
	}
}

// flipRel is the relation of a row after multiplying both sides by −1.
func flipRel(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

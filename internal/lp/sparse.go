package lp

// Sparse standard computational form of the revised simplex: rows
// normalized to b ≥ 0, then one slack column per ≤ row, a surplus and an
// artificial column per ≥ row, and an artificial column per = row, so the
// slack/artificial columns form an immediately feasible phase-1 basis.
// buildForm (form.go) is the one way to make one.

// spForm is a Problem in sparse standard form, A x = b, x ≥ 0, b ≥ 0,
// minimize cᵀx, stored both by column (CSC) and by row (CSR).
type spForm struct {
	m, n  int // rows, total columns (vars + slacks + artificials)
	nOrig int // structural (user) columns
	nReal int // columns excluding artificials

	colPtr []int // n+1 offsets into rowIdx/vals
	rowIdx []int
	vals   []float64

	// CSR mirror of the same matrix, columns ascending within each row,
	// for the pricing layer's sparse pivot-row assembly.
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

	// rowScale and colScale are the power-of-two equilibration factors the
	// form's rows and structural columns carry, nil when scaling did not
	// engage: the form's x_j is x_j/colScale_j of the stated problem and its
	// y_i is y_i/rowScale_i.
	rowScale []float64
	colScale []float64
	// normMax and normMin are the extreme max-abs row norms of the form's
	// matrix, the scaling condition proxy (0 without a nonzero row).
	normMax, normMin float64

	maximize bool // the stated problem maximizes; cost holds its negation
	maxIters int
}

// col returns column j's nonzero rows and values.
func (f *spForm) col(j int) ([]int, []float64) {
	lo, hi := f.colPtr[j], f.colPtr[j+1]
	return f.rowIdx[lo:hi], f.vals[lo:hi]
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

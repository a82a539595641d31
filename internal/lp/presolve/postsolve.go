package presolve

// Postsolve: map a reduced solution back to the original problem exactly.
//
// Primal recovery is order-free for fixed variables (their values are
// constants) and uses conversion-time row snapshots for slack-recovered
// columns, so it runs in two simple passes. Dual recovery walks the journal
// in REVERSE elimination order: the dual of a removed singleton row r that
// fixed column j is forced by the complementary-slackness identity
//
//	c_j − Σ_{i≠r} y_i·a_ij = y_r·a_rj
//
// over j's ORIGINAL column, and every row in that column other than r was
// either never removed (dual already mapped) or removed LATER (already
// recovered by the reverse walk) — earlier-removed rows were singletons in
// variables fixed before j and cannot contain j.

// PostsolvePrimal maps the reduced primal point xRed (len = reduced vars,
// unscaled) to the original variable space, replaying the elimination
// journal.
func (r *Reduction) PostsolvePrimal(xRed []float64) []float64 {
	x := make([]float64, r.OrigVars)
	for jn, jo := range r.VarMap {
		x[jo] = xRed[jn]
	}
	// Constant recoveries first (fixed and dropped-redundant columns), so
	// the slack recoveries below see every term of their row snapshots.
	for _, st := range r.steps {
		switch st.kind {
		case stepFixVar:
			x[st.col] = st.val
		case stepFreeCol:
			x[st.col] = 0
		}
	}
	for _, st := range r.steps {
		if st.kind != stepSlackCol {
			continue
		}
		resid := st.rhs
		for k, c := range st.rowCols {
			resid -= st.rowVals[k] * x[c]
		}
		v := resid / st.coef
		if v < 0 && v > -epsFeas {
			v = 0 // solver-tolerance slack noise; the variable is nonnegative
		}
		x[st.col] = v
	}
	return x
}

// PostsolveDual maps the reduced dual vector yRed (len = reduced rows, in
// the problem's own sense, unscaled) to the original rows. Dropped redundant rows
// price at zero; removed singleton rows get the exact complementary value.
func (r *Reduction) PostsolveDual(yRed []float64) []float64 {
	y := make([]float64, r.OrigRows)
	for in, io := range r.RowMap {
		y[io] = yRed[in]
	}
	for k := len(r.steps) - 1; k >= 0; k-- {
		st := r.steps[k]
		if st.kind != stepFixVar {
			continue
		}
		sum := 0.0
		for t, i := range st.colRows {
			if i != st.row {
				sum += y[i] * st.colVals[t]
			}
		}
		y[st.row] = (st.cost - sum) / st.coef
	}
	return y
}

// MapBasis maps a reduced-space basis (the lp package's problem-space
// encoding: entry < reduced NumVars is a structural column, reduced
// NumVars+r is reduced row r's auxiliary) to the original encoding, filling
// the rows presolve removed: a row that fixed a variable takes that
// variable as basic (it sits at its fixed value, possibly degenerately at
// zero); a dropped redundant row takes its own auxiliary. numVarsRed is the
// reduced problem's variable count.
func (r *Reduction) MapBasis(basisRed []int, numVarsRed int) []int {
	out := make([]int, r.OrigRows)
	for i := range out {
		out[i] = r.OrigVars + i // default: own auxiliary
	}
	for in, e := range basisRed {
		io := r.RowMap[in]
		if e < numVarsRed {
			out[io] = r.VarMap[e]
		} else {
			out[io] = r.OrigVars + r.RowMap[e-numVarsRed]
		}
	}
	for _, st := range r.steps {
		if st.kind == stepFixVar {
			out[st.row] = st.col
		}
	}
	return out
}

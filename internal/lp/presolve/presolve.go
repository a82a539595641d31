// Package presolve implements an LP presolve and scaling layer over a
// solver-neutral problem representation (DESIGN.md §14).
//
// The pass runs before the simplex kernel and has two jobs:
//
//   - Eliminations (Mode Full): drop empty and duplicate rows, fix variables
//     pinned by singleton equality rows, and remove or re-slack zero-cost
//     singleton columns. Every elimination is journaled so Postsolve can
//     restore the primal point, the dual vector, and the basis of the
//     ORIGINAL problem exactly — shadow prices (core.MarginalCurve) are
//     unchanged by presolve.
//
//   - Scaling (both modes): geometric-mean equilibration of rows then
//     columns, with every factor rounded to a power of two so the scaled
//     coefficients are bit-exact transforms of the originals (no rounding
//     error enters or leaves the solve). Scaling only engages when the
//     coefficient magnitudes actually spread past a threshold; well-scaled
//     problems pass through bit-identical, preserving pivot-for-pivot
//     reproducibility of the unscaled trajectories.
//
// Mode ScaleOnly skips the eliminations; warm-started solves use it because
// a warm basis is indexed by the original rows and columns, and scaling is
// the only transform that preserves both index spaces.
package presolve

import "math"

// Rel mirrors the constraint relations of the lp package without importing
// it (presolve must stay import-free of its consumer).
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

// Row is one constraint a·x Rel RHS in sparse form.
type Row struct {
	Cols []int
	Vals []float64
	Rel  Rel
	RHS  float64
}

// Problem is the neutral LP snapshot handed to Run. Cost is in the
// problem's own sense; presolve only ever tests costs against zero and
// feeds them through the (sense-invariant) dual recovery identity, so the
// sense itself never needs to be known here.
type Problem struct {
	NumVars int
	Cost    []float64
	Rows    []Row
}

// Mode selects how aggressive the pass is.
type Mode int

const (
	// ScaleOnly applies equilibration but no eliminations; row and column
	// index spaces are preserved (required under warm starts).
	ScaleOnly Mode = iota
	// Full applies eliminations then scaling.
	Full
)

// Outcome reports what Run concluded.
type Outcome int

const (
	// OutcomeReduced means the reduced problem should be solved and the
	// solution mapped back through Postsolve*.
	OutcomeReduced Outcome = iota
	// OutcomeInfeasible means presolve proved the problem infeasible
	// (an inconsistent empty/duplicate row or a fixed variable forced
	// negative); no solve is needed.
	OutcomeInfeasible
	// OutcomeSolved means eliminations consumed the entire problem: every
	// variable is fixed and every row accounted for. PostsolvePrimal /
	// PostsolveDual / MapBasis on empty inputs yield the full solution.
	OutcomeSolved
)

// Feasibility and merge tolerances, aligned with the solver's own epsFeas.
const (
	epsFeas  = 1e-7
	epsMerge = 1e-9
)

// scaleSpread is the max/min coefficient-magnitude ratio above which
// equilibration engages. Below it the matrix is already well conditioned
// and identity scaling preserves the historical pivot trajectories exactly.
const scaleSpread = 1 << 12

// step kinds in the elimination journal.
type stepKind int8

const (
	stepFixVar   stepKind = iota // singleton EQ row fixed col at val; row removed
	stepDropRow                  // redundant row removed; its dual is 0
	stepFreeCol                  // redundant zero-cost slack-direction col removed; x = 0
	stepSlackCol                 // zero-cost singleton col turned an EQ row into LE/GE; x = row slack
)

// step is one journal entry. Fields are in ORIGINAL row/column indices and
// original (unscaled) numbers.
type step struct {
	kind stepKind
	row  int
	col  int
	val  float64 // stepFixVar: the fixed value
	coef float64 // stepFixVar / stepSlackCol: the pivotal coefficient a_rj
	cost float64 // stepFixVar: original cost of col

	// stepFixVar: the column of col over the ORIGINAL rows (for dual
	// recovery of the removed row).
	colRows []int
	colVals []float64

	// stepSlackCol: snapshot of the converted row (terms excluding col,
	// with the RHS as of conversion time) for primal slack recovery. The
	// snapshot is self-consistent under later substitutions: a term fixed
	// later contributes coef·X exactly where the later substitution would
	// have moved coef·val into the RHS.
	rowCols []int
	rowVals []float64
	rhs     float64
}

// Reduction is the output of Run: the reduced problem plus everything
// needed to map a reduced solution back to the original index spaces.
type Reduction struct {
	Outcome Outcome
	P       *Problem // reduced and scaled (nil unless OutcomeReduced)

	// RowScale/ColScale are the power-of-two equilibration factors, per
	// REDUCED row/column (all 1 when scaling did not engage).
	RowScale []float64
	ColScale []float64

	// RowMap/VarMap translate reduced indices to original ones.
	RowMap []int
	VarMap []int

	OrigVars int
	OrigRows int

	// RowsRemoved/ColsRemoved count eliminations (for SolveStats).
	RowsRemoved int
	ColsRemoved int
	// Scaled reports whether equilibration engaged.
	Scaled bool
	// RowNormMax/RowNormMin are the extreme max-abs row norms of the final
	// reduced matrix (post-scaling when scaling engaged) — the scaling
	// condition proxy surfaced in SolveStats. Zero when the reduced
	// problem has no nonzero rows.
	RowNormMax float64
	RowNormMin float64

	steps []step
}

// workRow is a mutable row during elimination.
type workRow struct {
	cols  []int
	vals  []float64
	rel   Rel
	rhs   float64
	alive bool
}

// Run presolves p. The input is never mutated.
func Run(p *Problem, mode Mode) *Reduction {
	r := &Reduction{
		Outcome:  OutcomeReduced,
		OrigVars: p.NumVars,
		OrigRows: len(p.Rows),
	}

	// Working copy with duplicate terms accumulated and zeros dropped,
	// mirroring how the kernel ingests rows.
	rows := make([]workRow, len(p.Rows))
	acc := map[int]float64{}
	for i, row := range p.Rows {
		clear(acc)
		for k, c := range row.Cols {
			acc[c] += row.Vals[k]
		}
		w := workRow{rel: row.Rel, rhs: row.RHS, alive: true}
		for c := range acc {
			if acc[c] != 0 {
				w.cols = append(w.cols, c)
			}
		}
		sortIntsWith(w.cols)
		w.vals = make([]float64, len(w.cols))
		for k, c := range w.cols {
			w.vals[k] = acc[c]
		}
		rows[i] = w
	}
	colAlive := make([]bool, p.NumVars)
	for j := range colAlive {
		colAlive[j] = true
	}

	if mode == Full {
		if !r.eliminate(p, rows, colAlive) {
			r.Outcome = OutcomeInfeasible
			return r
		}
	}

	// Assemble the reduced problem over surviving rows and columns.
	r.VarMap = r.VarMap[:0]
	colNew := make([]int, p.NumVars)
	for j := range colNew {
		colNew[j] = -1
	}
	for j, alive := range colAlive {
		if alive {
			colNew[j] = len(r.VarMap)
			r.VarMap = append(r.VarMap, j)
		}
	}
	for i := range rows {
		if rows[i].alive {
			r.RowMap = append(r.RowMap, i)
		}
	}
	if len(r.VarMap) == 0 {
		// Everything eliminated (every surviving row would need a column).
		r.Outcome = OutcomeSolved
		return r
	}

	rp := &Problem{NumVars: len(r.VarMap), Cost: make([]float64, len(r.VarMap))}
	for jn, jo := range r.VarMap {
		rp.Cost[jn] = p.Cost[jo]
	}
	rp.Rows = make([]Row, 0, len(r.RowMap))
	for _, io := range r.RowMap {
		w := &rows[io]
		nr := Row{Rel: w.rel, RHS: w.rhs,
			Cols: make([]int, len(w.cols)), Vals: make([]float64, len(w.cols))}
		for k, c := range w.cols {
			nr.Cols[k] = colNew[c]
			nr.Vals[k] = w.vals[k]
		}
		rp.Rows = append(rp.Rows, nr)
	}
	r.P = rp
	r.scale()
	return r
}

// eliminate applies the Full-mode reductions to fixpoint. Returns false on
// proven infeasibility.
func (r *Reduction) eliminate(p *Problem, rows []workRow, colAlive []bool) bool {
	// Original column index, captured before any substitution, for the
	// dual recovery of removed singleton rows.
	origColRows := make([][]int, p.NumVars)
	origColVals := make([][]float64, p.NumVars)
	for i := range rows {
		for k, c := range rows[i].cols {
			origColRows[c] = append(origColRows[c], i)
			origColVals[c] = append(origColVals[c], rows[i].vals[k])
		}
	}

	for pass := 0; pass < 16; pass++ {
		changed := false

		// Empty rows and singleton equality rows.
		for i := range rows {
			w := &rows[i]
			if !w.alive {
				continue
			}
			switch len(w.cols) {
			case 0:
				if !emptyRowFeasible(w.rel, w.rhs) {
					return false
				}
				w.alive = false
				r.RowsRemoved++
				r.steps = append(r.steps, step{kind: stepDropRow, row: i})
				changed = true
			case 1:
				if w.rel != EQ {
					continue
				}
				j, a := w.cols[0], w.vals[0]
				v := w.rhs / a
				if v < -epsFeas {
					return false
				}
				if v < 0 {
					v = 0
				}
				r.steps = append(r.steps, step{
					kind: stepFixVar, row: i, col: j, val: v, coef: a,
					cost:    p.Cost[j],
					colRows: origColRows[j], colVals: origColVals[j],
				})
				colAlive[j] = false
				w.alive = false
				r.RowsRemoved++
				r.ColsRemoved++
				substitute(rows, j, v)
				changed = true
			}
		}

		// Duplicate (exactly proportional, same-relation) rows.
		dupChanged, feasible := dropDuplicates(rows, r)
		if !feasible {
			return false
		}
		if dupChanged {
			changed = true
		}

		// Zero-cost singleton columns: slack-direction ones are redundant
		// (drop, x = 0); on an equality row the column IS the row's slack,
		// so the row relaxes to an inequality and the column goes away.
		count := make([]int, p.NumVars)
		where := make([]int, p.NumVars)
		for i := range rows {
			if !rows[i].alive {
				continue
			}
			for _, c := range rows[i].cols {
				count[c]++
				where[c] = i
			}
		}
		for j := range colAlive {
			if !colAlive[j] || p.Cost[j] != 0 || count[j] != 1 {
				continue
			}
			i := where[j]
			w := &rows[i]
			k := indexOf(w.cols, j)
			a := w.vals[k]
			switch {
			case (w.rel == LE && a > 0) || (w.rel == GE && a < 0):
				// An extra slack (LE) / surplus (GE): x = 0 extends any
				// reduced optimum, and the dual constraint of the column
				// holds with the row's own dual sign.
				r.steps = append(r.steps, step{kind: stepFreeCol, col: j})
				colAlive[j] = false
				r.ColsRemoved++
				removeTerm(w, k)
				changed = true
			case w.rel == EQ:
				// a·x_j + rest = b, x_j ≥ 0 ⇔ rest ≤ b (a > 0) or
				// rest ≥ b (a < 0); x_j is recovered as the slack.
				st := step{kind: stepSlackCol, row: i, col: j, coef: a, rhs: w.rhs}
				for t, c := range w.cols {
					if c == j {
						continue
					}
					st.rowCols = append(st.rowCols, c)
					st.rowVals = append(st.rowVals, w.vals[t])
				}
				r.steps = append(r.steps, st)
				colAlive[j] = false
				r.ColsRemoved++
				removeTerm(w, k)
				if a > 0 {
					w.rel = LE
				} else {
					w.rel = GE
				}
				changed = true
			}
		}

		if !changed {
			break
		}
	}
	return true
}

// substitute removes variable j (fixed at v) from every live row.
func substitute(rows []workRow, j int, v float64) {
	for i := range rows {
		w := &rows[i]
		if !w.alive {
			continue
		}
		if k := indexOf(w.cols, j); k >= 0 {
			w.rhs -= w.vals[k] * v
			removeTerm(w, k)
		}
	}
}

// dropDuplicates merges exactly-proportional same-relation row pairs,
// keeping the tighter of the two. Reports whether anything changed and
// whether the system stayed consistent (an equality pair with conflicting
// right-hand sides proves infeasibility).
func dropDuplicates(rows []workRow, r *Reduction) (bool, bool) {
	type sig struct {
		rel   Rel
		n     int
		c0    int
		ratio float64 // vals[1]/vals[0], 0 for singletons
	}
	changed := false
	buckets := map[sig][]int{}
	for i := range rows {
		w := &rows[i]
		if !w.alive || len(w.cols) == 0 {
			continue
		}
		s := sig{rel: w.rel, n: len(w.cols), c0: w.cols[0]}
		if len(w.vals) > 1 {
			s.ratio = w.vals[1] / w.vals[0]
		}
		candidates := buckets[s]
		merged := false
		for t, i2 := range candidates {
			w2 := &rows[i2]
			lambda, ok := proportional(w2, w)
			if !ok {
				continue
			}
			// w = λ·w2 coefficient-wise, λ > 0; b is w's bound in w2's
			// normalization. The LOOSER row is dropped (its slack is
			// strictly positive whenever the pair separates, so zero is its
			// complementary dual); the binding bound must stay on the row
			// that owns it or its shadow price lands on the wrong index.
			b := w.rhs / lambda
			drop := i // default: w is redundant
			switch w.rel {
			case LE:
				if b < w2.rhs {
					drop = i2
				}
			case GE:
				if b > w2.rhs {
					drop = i2
				}
			case EQ:
				if math.Abs(b-w2.rhs) > epsMerge*math.Max(1, math.Abs(w2.rhs)) {
					return changed, false
				}
			}
			rows[drop].alive = false
			r.RowsRemoved++
			r.steps = append(r.steps, step{kind: stepDropRow, row: drop})
			if drop == i2 {
				candidates[t] = i // the survivor represents the bucket now
			}
			changed = true
			merged = true
			break
		}
		if !merged {
			buckets[s] = append(candidates, i)
		}
	}
	return changed, true
}

// proportional reports whether b = λ·a for some λ > 0 (exact float
// equality per coefficient, so only true duplicates merge).
func proportional(a, b *workRow) (float64, bool) {
	if len(a.cols) != len(b.cols) {
		return 0, false
	}
	lambda := b.vals[0] / a.vals[0]
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return 0, false
	}
	for k := range a.cols {
		if a.cols[k] != b.cols[k] || a.vals[k]*lambda != b.vals[k] {
			return 0, false
		}
	}
	return lambda, true
}

// emptyRowFeasible checks 0 Rel rhs under the solver's feasibility slack.
func emptyRowFeasible(rel Rel, rhs float64) bool {
	switch rel {
	case LE:
		return rhs >= -epsFeas
	case GE:
		return rhs <= epsFeas
	default:
		return math.Abs(rhs) <= epsFeas
	}
}

// scale equilibrates the reduced matrix with power-of-two factors when the
// coefficient spread warrants it. RowScale/ColScale are always populated.
func (r *Reduction) scale() {
	p := r.P
	r.RowScale = ones(len(p.Rows))
	r.ColScale = ones(p.NumVars)

	minA, maxA := math.Inf(1), 0.0
	for i := range p.Rows {
		for _, v := range p.Rows[i].Vals {
			a := math.Abs(v)
			if a < minA {
				minA = a
			}
			if a > maxA {
				maxA = a
			}
		}
	}
	if maxA == 0 || !finite(maxA) || !finite(minA) || maxA/minA <= scaleSpread {
		r.measureRowNorms()
		return
	}
	r.Scaled = true

	// Geometric-mean row pass, then column pass, each rounded to 2^k.
	for i := range p.Rows {
		r.RowScale[i] = pow2Inverse(geomean(p.Rows[i].Vals))
	}
	logSum := make([]float64, p.NumVars)
	cnt := make([]int, p.NumVars)
	for i := range p.Rows {
		for k, c := range p.Rows[i].Cols {
			a := math.Abs(p.Rows[i].Vals[k]) * r.RowScale[i]
			if a > 0 && finite(a) {
				logSum[c] += math.Log2(a)
				cnt[c]++
			}
		}
	}
	for j := 0; j < p.NumVars; j++ {
		if cnt[j] > 0 {
			r.ColScale[j] = math.Exp2(-math.Round(logSum[j] / float64(cnt[j])))
		}
	}

	for i := range p.Rows {
		row := &p.Rows[i]
		rs := r.RowScale[i]
		for k, c := range row.Cols {
			row.Vals[k] *= rs * r.ColScale[c]
		}
		row.RHS *= rs
	}
	for j := range p.Cost {
		p.Cost[j] *= r.ColScale[j]
	}
	r.measureRowNorms()
}

// measureRowNorms records the scaling condition proxy — the extreme
// max-abs row norms of the matrix exactly as the kernel will factorize it
// (after any equilibration). A wide max/min ratio survives power-of-two
// scaling only when the spread lives inside single rows, which is where
// threshold pivoting starts rejecting rows and eta growth accelerates.
func (r *Reduction) measureRowNorms() {
	lo, hi := math.Inf(1), 0.0
	for i := range r.P.Rows {
		n := 0.0
		for _, v := range r.P.Rows[i].Vals {
			if a := math.Abs(v); a > n {
				n = a
			}
		}
		if n == 0 || !finite(n) {
			continue
		}
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi > 0 && finite(lo) {
		r.RowNormMax, r.RowNormMin = hi, lo
	}
}

// geomean returns the geometric mean of the nonzero magnitudes of vals.
func geomean(vals []float64) float64 {
	s, n := 0.0, 0
	for _, v := range vals {
		a := math.Abs(v)
		if a > 0 && finite(a) {
			s += math.Log2(a)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp2(s / float64(n))
}

// pow2Inverse returns the power of two nearest to 1/g.
func pow2Inverse(g float64) float64 {
	if !(g > 0) || !finite(g) {
		return 1
	}
	return math.Exp2(-math.Round(math.Log2(g)))
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func removeTerm(w *workRow, k int) {
	w.cols = append(w.cols[:k], w.cols[k+1:]...)
	w.vals = append(w.vals[:k], w.vals[k+1:]...)
}

// sortIntsWith is insertion sort (rows are short; avoids the sort package
// closure allocation in the hot conversion path).
func sortIntsWith(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

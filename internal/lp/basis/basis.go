// Package basis implements the revised simplex's basis inverse (DESIGN.md
// §14): a sparse LU factorization in the style of Gilbert–Peierls /
// Markowitz codes. Columns are processed in a static Markowitz (fewest
// nonzeros first) order, each solved against the partial L by visiting, in
// step order, only the steps its nonzeros reach, and rows are chosen by
// threshold partial pivoting with a row-count (Markowitz) tie-break. Pivot
// updates are absorbed as eta matrices on top of the fixed LU factors
// ("eta-on-LU", the product-form cousin of Forrest–Tomlin), so a warm basis
// survives refactorization-free across a run of pivots. The L passes of
// FTRAN and BTRAN visit only the steps with a nonempty L column, but each
// solve still makes several O(m) passes: they are not hyper-sparse.
//
// The pivot loops in internal/lp see four operations — factorize a basis,
// FTRAN/BTRAN against it, absorb one pivot per Update — and the package's
// tests pin them against a dense LU, against a product-form eta file
// (eta_test.go), and bit for bit against the step-scan LU the reach-ordered
// factorization replaced (scan_test.go).
//
// Eta nonzeros live in one flat append-only arena, so a pivot costs zero
// allocations once the arena has warmed up.
package basis

// Columns is the factorization's read-only view of the constraint matrix:
// column j as parallel (row, value) slices. internal/lp's sparse standard
// form implements it.
type Columns interface {
	// NumRows reports the number of constraint rows m.
	NumRows() int
	// Col returns column j's nonzero rows, each at most once, and values.
	// The factorization must not mutate the returned slices.
	Col(j int) (rows []int, vals []float64)
}

// Stats counts numerical-health events inside the LU: the forensic counters
// the solver surfaces per solve. The LU is pooled across solves and
// Factorize resets the factors internally (including mid-solve
// reinversions), so Reset and Factorize deliberately do NOT clear these —
// the solver calls Clear at solve start and harvests at solve end, and the
// counters therefore span every factorization attempt within one solve.
type Stats struct {
	// MaxEtaLen is the peak eta-file length observed — the growth proxy
	// for update-file conditioning (a long file means many pivots absorbed
	// since the factors were last clean).
	MaxEtaLen int
	// PivotRejections counts candidate rows rejected by the LU threshold
	// test during factorization: sparsity-driven (Markowitz-tie-broken)
	// pivoting skipping numerically admissible-but-small rows.
	PivotRejections int
	// TauRetries counts factorizations that hit a vanishing pivot under
	// relaxed threshold pivoting and fell back to strict partial pivoting.
	TauRetries int
}

// Clear zeroes the counters; called by the solver at solve start.
func (s *Stats) Clear() { *s = Stats{} }

// noteEta records an eta-file length observation.
func (s *Stats) noteEta(n int) {
	if n > s.MaxEtaLen {
		s.MaxEtaLen = n
	}
}

// refactorEvery bounds eta growth between reinversions. The LU could
// tolerate a longer leash (its base factors do not drift), but the
// scheduling LPs' pivot counts and factorization costs were measured at this
// budget.
const refactorEvery = 64

// epsFactor is the minimum acceptable pivot magnitude during factorization;
// below it the basis is declared singular.
const epsFactor = 1e-8

// etaFile is a product-form update file: each eta records one pivot (row r,
// pivot value, off-pivot nonzeros). Nonzeros live in flat shared arenas so
// appending an eta allocates only when the arena itself must grow.
type etaFile struct {
	r     []int32
	pivot []float64
	ptr   []int32 // len(r)+1 offsets into rows/vals
	rows  []int32
	vals  []float64
}

func (e *etaFile) reset() {
	e.r = e.r[:0]
	e.pivot = e.pivot[:0]
	e.rows = e.rows[:0]
	e.vals = e.vals[:0]
	if len(e.ptr) == 0 {
		e.ptr = append(e.ptr, 0)
	}
	e.ptr = e.ptr[:1]
}

func (e *etaFile) len() int { return len(e.r) }

// append records the pivot (row r, column values alpha) as a new eta.
func (e *etaFile) append(r int, alpha []float64) {
	e.r = append(e.r, int32(r))
	e.pivot = append(e.pivot, alpha[r])
	for i, v := range alpha {
		if i != r && v != 0 {
			e.rows = append(e.rows, int32(i))
			e.vals = append(e.vals, v)
		}
	}
	e.ptr = append(e.ptr, int32(len(e.rows)))
}

// ftran applies the eta inverses in append order: v ← Eₖ⁻¹…E₁⁻¹ v.
func (e *etaFile) ftran(v []float64) {
	for k := range e.r {
		r := e.r[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t /= e.pivot[k]
		lo, hi := e.ptr[k], e.ptr[k+1]
		for i := lo; i < hi; i++ {
			v[e.rows[i]] -= e.vals[i] * t
		}
		v[r] = t
	}
}

// btran applies the transposed eta inverses in reverse order:
// v ← E₁⁻ᵀ…Eₖ⁻ᵀ v.
func (e *etaFile) btran(v []float64) {
	for k := len(e.r) - 1; k >= 0; k-- {
		r := e.r[k]
		t := v[r]
		lo, hi := e.ptr[k], e.ptr[k+1]
		for i := lo; i < hi; i++ {
			t -= e.vals[i] * v[e.rows[i]]
		}
		v[r] = t / e.pivot[k]
	}
}

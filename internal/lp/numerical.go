package lp

import (
	"fmt"
	"math"
)

// Numerical-failure guards (DESIGN.md §10). The kernel watches for
// non-finite state — NaN/±Inf in the basic values or the phase objective —
// at the same checkpoints where it polls for cancellation, and first
// attempts recovery by rebuilding its basis inverse from scratch
// (reinversion recomputes xB = B⁻¹b from the clean standard form, so drift
// or a corrupted working vector is genuinely repaired). A breakdown that
// survives recovery ends the attempt; Solve then rescues a presolved solve
// once by re-solving the original problem cold without presolve. What the
// rescue cannot repair surfaces as a typed *NumericalError, so callers can
// distinguish "bad problem" (Infeasible/Unbounded, a statement about the LP)
// from "bad luck" (a solve that went numerically wrong and may succeed on a
// retry or a heuristic).

// NumericalError reports a solve abandoned because the kernel's working
// state went numerically bad (non-finite values, a singular basis at
// reinversion, or an FTRAN/BTRAN disagreement) — for a presolved solve, in
// the rescue as well. It makes no statement about the problem: retrying or
// falling back to a heuristic are both legitimate responses, which is
// exactly what internal/resilience does.
type NumericalError struct {
	// Reason is a short machine-readable description of the breakdown.
	Reason string
	// Pivots is how many pivots were spent before the breakdown.
	Pivots int
}

// Error implements error.
func (e *NumericalError) Error() string {
	return fmt.Sprintf("lp: numerical breakdown after %d pivots: %s", e.Pivots, e.Reason)
}

// statusNumerical is the kernel's internal "numerically stuck" outcome. It
// never escapes the package: solveSparse converts it into a
// *NumericalError before returning.
const statusNumerical Status = -1

// maxNaNRetries bounds refactorization-and-retry attempts per solve; a
// breakdown that survives this many reinversions is reported, not fought.
const maxNaNRetries = 3

// finiteAll reports whether every value is finite.
func finiteAll(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// finite reports whether x is a finite float.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

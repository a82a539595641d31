package core

import (
	"math"

	"powercap/internal/lp"
)

// Crash basis (DESIGN.md §7). The fixed-vertex-order program always has a
// feasible schedule in plain sight: every tunable task at its lowest-power
// frontier point, every event at its longest-path time under those
// durations. At any cap at or above the closed-form floor its power rows
// fit, since the floor is exactly their lowest-power sum, and its times
// satisfy every time row by construction. crashBasis turns that schedule
// into a starting basis (a crash basis, after Bixby 1992), so a cold solve
// of the program starts phase 2 at once instead of rebuilding a feasible
// basis in phase 1.
//
// The basis puts each tunable task's lowest-power column in its convexity
// row, each group of simultaneous events on the time row that binds the
// group (one member there, the others on the group's eq rows), and the
// canonical auxiliary in every other row. Ordered as convexity rows, time
// rows in event order, then the rest, it is block lower triangular with
// nonsingular diagonal blocks. A program whose power rows cannot fit at
// lowest power is infeasible; there the kernel finds the crash primal
// infeasible and solves cold, which reports the infeasibility as before.

// timeRow is one time row as emitter.time wrote it: dst − src − Σ_k
// d_k·c_k ≥ rhs (= rhs for the Init pin and eq rows), over the
// configuration variables of the tunable task whose duration enters the
// row, if any.
type timeRow struct {
	row      int
	dst, src lp.Var  // src is -1 for a row with no source time variable
	dur      float64 // the task's lowest-power duration; 0 without a tunable task
	join     bool    // an eq row pinning dst to the event before it
}

// cvxRow is a tunable task's convexity row and its lowest-power column.
type cvxRow struct {
	row int
	col lp.Var
}

// crashLog is what the emitters record for crashBasis as they emit rows:
// every time row (emitter.time) and every convexity row
// (emitter.configVars), in emission order. A nil log records nothing
// (programs solved without a crash).
type crashLog struct {
	times []timeRow
	cvx   []cvxRow
}

// crashBasis builds the crash basis of prob at its current right-hand
// sides from the emitters' log. order lists the program's time variables
// in event order (a window appends its completion variable z, which no eq
// row joins). A group's time is the largest, over every logged row into a
// member from an earlier group, of the source's time plus the row's
// right-hand side plus its duration; that row binds, the first logged on a
// tie. It returns nil, meaning a cold solve, when a row inside a group
// carries a positive duration or a group has no row to bind.
func crashBasis(prob *lp.Problem, log *crashLog, order []lp.Var) []int {
	n := prob.NumVars()
	pos := make([]int, n) // each time variable's position in order, else -1
	for j := range pos {
		pos[j] = -1
	}
	for p, v := range order {
		pos[v] = p
	}

	// Rows into each position in log order (counting sort), and the eq row
	// joining each position to the one before it.
	joinRow := make([]int, len(order))
	for p := range joinRow {
		joinRow[p] = -1
	}
	start := make([]int, len(order)+1)
	for _, tr := range log.times {
		p := pos[tr.dst]
		if tr.join {
			joinRow[p] = tr.row
			continue
		}
		start[p+1]++
	}
	for p := range order {
		start[p+1] += start[p]
	}
	into := make([]int, start[len(order)])
	next := append([]int(nil), start[:len(order)]...)
	for k, tr := range log.times {
		if !tr.join {
			p := pos[tr.dst]
			into[next[p]] = k
			next[p]++
		}
	}

	basis := make([]int, prob.NumConstraints())
	for r := range basis {
		basis[r] = n + r
	}
	for _, c := range log.cvx {
		basis[c.row] = int(c.col)
	}
	t := make([]float64, len(order))
	for p := 0; p < len(order); {
		q := p + 1
		for q < len(order) && joinRow[q] >= 0 {
			q++
		}
		best, bind, at := math.Inf(-1), -1, -1
		for i := p; i < q; i++ {
			for _, k := range into[start[i]:start[i+1]] {
				tr := &log.times[k]
				v := prob.RHS(tr.row) + tr.dur
				if tr.src >= 0 {
					s := pos[tr.src]
					if s >= p { // inside the group, whose members share one time
						if v > 0 {
							return nil
						}
						continue
					}
					v += t[s]
				}
				if v > best || (v == best && k < bind) {
					best, bind, at = v, k, i
				}
			}
		}
		if bind < 0 {
			return nil
		}
		for i := p; i < q; i++ {
			t[i] = best
		}
		basis[log.times[bind].row] = int(order[at])
		for i := p; i < at; i++ {
			basis[joinRow[i+1]] = int(order[i])
		}
		for i := at + 1; i < q; i++ {
			basis[joinRow[i]] = int(order[i])
		}
		p = q
	}
	return basis
}

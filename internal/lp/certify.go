package lp

import (
	"fmt"
	"math"
)

// Optimality certificates. A primal point x and a dual vector y prove x
// optimal without trusting the simplex that produced them: x satisfies the
// rows and x ≥ 0, y is dual feasible (every reduced cost and every row dual
// has its optimal sign), and cᵀx = bᵀy. By weak duality bᵀy bounds every
// feasible objective, so equality pins x as optimal. Certify checks the
// three in one pass over the problem as stated, before scaling.

// Certificate tolerances, each relative to the magnitude of the terms it
// compares (see Certificate).
const (
	// certPrimalTol bounds a row's violation and x's negativity: the
	// kernel's own feasibility tolerance.
	certPrimalTol = 1e-7
	// certDualTol bounds a reduced cost or a row dual of the wrong sign:
	// the tolerance at which the kernel abandons a warm basis as dual
	// infeasible.
	certDualTol = 1e-7
	// certGapTol bounds the duality gap, the tolerance the repo holds
	// objectives to.
	certGapTol = 1e-9
)

// Certificate is the evidence Certify computes for a solution.
type Certificate struct {
	// PrimalResidual is the largest violation of a row, relative to the
	// larger of 1, its right-hand side and its largest term aᵢⱼxⱼ, or of
	// x ≥ 0, relative to the larger of 1 and the largest |xⱼ|.
	PrimalResidual float64
	// DualResidual is the largest violation of dual feasibility, in the
	// Solution.Dual convention: a reduced cost cⱼ − Σᵢ yᵢaᵢⱼ of the wrong
	// sign, relative to the larger of 1, |cⱼ| and its largest term yᵢaᵢⱼ,
	// or a row dual of the wrong sign for its relation, relative to the
	// larger of 1 and the largest |yᵢ|.
	DualResidual float64
	// Gap is |cᵀx − bᵀy|, relative to the larger of 1 and the summed
	// magnitudes of both objectives' terms.
	Gap float64
}

// Err is nil when every residual is within its tolerance; otherwise it
// names the first that is not.
func (c Certificate) Err() error {
	switch {
	case !(c.PrimalResidual <= certPrimalTol):
		return fmt.Errorf("lp: certificate: primal residual %.3g exceeds %g", c.PrimalResidual, certPrimalTol)
	case !(c.DualResidual <= certDualTol):
		return fmt.Errorf("lp: certificate: dual residual %.3g exceeds %g", c.DualResidual, certDualTol)
	case !(c.Gap <= certGapTol):
		return fmt.Errorf("lp: certificate: duality gap %.3g exceeds %g", c.Gap, certGapTol)
	}
	return nil
}

// Certify checks sol's primal point X and duals Dual against p as stated,
// in one pass over its rows and no simplex. A solution without one value
// per variable and one dual per row certifies nothing: every residual is
// +Inf.
func Certify(p *Problem, sol *Solution) Certificate {
	if sol == nil || len(sol.X) != len(p.names) || len(sol.Dual) != len(p.rows) {
		inf := math.Inf(1)
		return Certificate{PrimalResidual: inf, DualResidual: inf, Gap: inf}
	}
	// The Solution.Dual convention: the objective's rate of change per unit
	// of right-hand side, so at a minimum a ≤ row's dual is ≤ 0, a ≥ row's
	// ≥ 0 and every reduced cost ≥ 0; a maximum flips all three.
	sgn := 1.0
	if p.sense == Maximize {
		sgn = -1
	}
	var c Certificate
	x, y := sol.X, sol.Dual
	xScale, yScale := 1.0, 1.0
	for _, v := range x {
		xScale = math.Max(xScale, math.Abs(v))
	}
	for _, v := range y {
		yScale = math.Max(yScale, math.Abs(v))
	}

	red := append([]float64(nil), p.obj...) // reduced costs, as rows subtract
	redScale := make([]float64, len(red))
	primalObj, dualObj, gapScale := 0.0, 0.0, 1.0
	for i, r := range p.rows {
		lhs, scale := 0.0, math.Max(1, math.Abs(r.rhs))
		for _, t := range r.terms {
			ax := t.Coef * x[t.Var]
			lhs += ax
			scale = math.Max(scale, math.Abs(ax))
			ya := y[i] * t.Coef
			red[t.Var] -= ya
			redScale[t.Var] = math.Max(redScale[t.Var], math.Abs(ya))
		}
		viol, wrongSign := 0.0, 0.0
		switch r.rel {
		case LE:
			viol, wrongSign = lhs-r.rhs, sgn*y[i]
		case GE:
			viol, wrongSign = r.rhs-lhs, -sgn*y[i]
		default:
			viol = math.Abs(lhs - r.rhs)
		}
		c.PrimalResidual = math.Max(c.PrimalResidual, viol/scale)
		c.DualResidual = math.Max(c.DualResidual, wrongSign/yScale)
		dualObj += r.rhs * y[i]
		gapScale += math.Abs(r.rhs * y[i])
	}
	for j, cj := range p.obj {
		c.PrimalResidual = math.Max(c.PrimalResidual, -x[j]/xScale)
		scale := math.Max(1, math.Max(math.Abs(cj), redScale[j]))
		c.DualResidual = math.Max(c.DualResidual, -sgn*red[j]/scale)
		primalObj += cj * x[j]
		gapScale += math.Abs(cj * x[j])
	}
	c.Gap = math.Abs(primalObj-dualObj) / gapScale
	if math.IsNaN(c.PrimalResidual + c.DualResidual + c.Gap) {
		inf := math.Inf(1)
		return Certificate{PrimalResidual: inf, DualResidual: inf, Gap: inf}
	}
	return c
}

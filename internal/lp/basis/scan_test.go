package basis

import (
	"math"
	"sort"
)

// scanLU is the step-scan factorization the reach-ordered LU replaced, kept
// as a test oracle the way eta_test.go keeps the product-form file. It
// shares the LU's storage and update file but factorizes with the old
// algorithm: columns ordered by sort.Slice, each new column solved against
// L by checking every earlier step, and FTRAN/BTRAN running the L solves
// over all m steps and dividing every gathered Uᵀ value. The production LU
// must reproduce its factors, counters and solves to the bit.
type scanLU struct{ LU }

func newScanLU(m int) *scanLU {
	e := &scanLU{}
	e.Reset(m)
	return e
}

// Factorize implements Engine.
func (e *scanLU) Factorize(a Columns, cols []int) ([]int, bool) {
	m := a.NumRows()
	e.Reset(m)
	if m == 0 {
		return cols, true
	}

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
	e.health.TauRetries++
	if e.factorizeTau(a, cols, 1.0) {
		return cols, true
	}
	return nil, false
}

// factorizeTau is one left-looking pass that scans every earlier step.
func (e *scanLU) factorizeTau(a Columns, cols []int, tau float64) bool {
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

// Ftran implements Engine with an L solve over all m steps.
func (e *scanLU) Ftran(v []float64) {
	m := e.m
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

// Btran implements Engine with an Lᵀ solve over all m steps and a divide
// for every Uᵀ value.
func (e *scanLU) Btran(v []float64) {
	e.file.btran(v)
	m := e.m
	z := e.z
	for k := 0; k < m; k++ {
		z[k] = v[e.ord[k]]
	}
	for k := 0; k < m; k++ {
		g := z[k]
		lo, hi := e.uPtr[k], e.uPtr[k+1]
		for i := lo; i < hi; i++ {
			g -= e.uVal[i] * z[e.uRow[i]]
		}
		z[k] = g / e.uDiag[k]
	}
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

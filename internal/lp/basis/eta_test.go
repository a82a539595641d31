package basis

import "math"

// Engine is the basis-inverse contract the cross-checks drive: the LU and
// the Eta test oracle both implement it, so one harness can replay the same
// bases and pivots through either and compare FTRAN/BTRAN results.
type Engine interface {
	Factorize(a Columns, cols []int) (slots []int, ok bool)
	Ftran(v []float64)
	Btran(v []float64)
	Update(r int, alpha []float64)
	Updates() int
	Due() bool
	Health() *Stats
}

// Eta is the product-form-of-the-inverse engine, kept as a test oracle: the
// basis inverse is the eta file itself. Reinversion rebuilds the file from
// scratch, FTRANing each basis column through the etas appended so far and
// claiming the largest remaining row as its pivot (partial row pivoting) —
// a product-form cousin of the Bartels–Golub update. It shares only the
// eta-file arena with the LU, so agreement between the two is evidence
// about the LU's factors.
type Eta struct {
	file    etaFile
	updates int
	health  Stats

	alpha   []float64
	rowUsed []bool
	slots   []int
}

// NewEta returns an Eta engine for m constraint rows.
func NewEta(m int) *Eta {
	e := &Eta{}
	e.Reset(m)
	return e
}

// Reset prepares the engine for a problem with m rows, retaining allocated
// capacity (engines are pooled across solves).
func (e *Eta) Reset(m int) {
	e.file.reset()
	e.updates = 0
	if cap(e.alpha) < m {
		e.alpha = make([]float64, m)
		e.rowUsed = make([]bool, m)
		e.slots = make([]int, m)
	}
	e.alpha = e.alpha[:m]
	e.rowUsed = e.rowUsed[:m]
	e.slots = e.slots[:m]
}

// Factorize implements Engine: incremental PFI reinversion with partial row
// pivoting. Columns are assigned to whichever row still holds their largest
// FTRANed magnitude, so the returned slot assignment generally permutes the
// input.
func (e *Eta) Factorize(a Columns, cols []int) ([]int, bool) {
	m := a.NumRows()
	e.file.reset()
	e.updates = 0
	for i := 0; i < m; i++ {
		e.rowUsed[i] = false
	}
	for _, j := range cols {
		for i := range e.alpha {
			e.alpha[i] = 0
		}
		rows, vals := a.Col(j)
		for k, r := range rows {
			e.alpha[r] = vals[k]
		}
		e.file.ftran(e.alpha)
		best, bestAbs := -1, epsFactor
		for i := 0; i < m; i++ {
			if e.rowUsed[i] {
				continue
			}
			if v := math.Abs(e.alpha[i]); v > bestAbs {
				best, bestAbs = i, v
			}
		}
		if best < 0 {
			return nil, false
		}
		e.file.append(best, e.alpha)
		e.rowUsed[best] = true
		e.slots[best] = j
	}
	// PFI reinversion rebuilds the inverse as etas, so the file length
	// itself (m etas) is this engine's baseline "growth".
	e.health.noteEta(e.file.len())
	return e.slots, true
}

// Ftran implements Engine.
func (e *Eta) Ftran(v []float64) { e.file.ftran(v) }

// Btran implements Engine.
func (e *Eta) Btran(v []float64) { e.file.btran(v) }

// Update implements Engine.
func (e *Eta) Update(r int, alpha []float64) {
	e.file.append(r, alpha)
	e.updates++
	e.health.noteEta(e.file.len())
}

// Updates implements Engine.
func (e *Eta) Updates() int { return e.updates }

// Due implements Engine.
func (e *Eta) Due() bool { return e.updates >= refactorEvery }

// Health implements Engine.
func (e *Eta) Health() *Stats { return &e.health }

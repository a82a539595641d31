//go:build !race

package core

// raceSlowdown scales the wall-clock budgets of solve-time tests (see
// race_test.go); without the race detector budgets hold as written.
const raceSlowdown = 1

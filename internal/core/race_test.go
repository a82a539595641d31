//go:build race

package core

// raceSlowdown scales the wall-clock budgets of solve-time tests: the race
// detector runs the LP kernel several times slower.
const raceSlowdown = 5

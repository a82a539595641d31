package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

const specName = "BENCHMARK.json"

// goldenJSON holds seed-1 answers of the full-size workloads.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// findRoot is the repository root: the nearest directory at or above the
// working directory that holds BENCHMARK.json, so that the benchmark runs
// from the root or from its own directory alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specName)); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New(specName + " not found in the working directory or above it")
		}
		dir = up
	}
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the workloads, and every metric with its unit and,
// for end-to-end metrics, the share of the baseline median by which it may
// worsen before it counts as a regression.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	path := filepath.Join(root, specName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// check keeps BENCHMARK.json and the code in step: the same workloads, and
// the same metrics with the same units.
func (s *spec) check() error {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		return fmt.Errorf("workloads %v, the benchmark runs %v", names, workloadNames())
	}
	if err := sameMetrics("end_to_end", s.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameMetrics("per_layer", s.PerLayer, perLayer())
}

func sameMetrics(list string, got []specMetric, want []layerCount) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s lists %d metrics, the benchmark reports %d", list, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Unit != w.unit {
			return fmt.Errorf("%s[%d] is %s (%s), the benchmark reports %s (%s)", list, i, got[i].Name, got[i].Unit, w.name, w.unit)
		}
	}
	return nil
}

// golden holds seed-1 answers of the full-size workloads: each workload's
// Result.Answers.
type golden struct {
	Seed      int64                `json:"seed"`
	MakespanS map[string][]float64 `json:"makespan_s"`
}

// upperLimit marks answers that come from a heuristic search rather than
// one LP optimum: the market's split and the windowed stitching. A better
// (lower) answer is still correct, so their golden value is a limit, not an
// equality.
var upperLimit = map[string]bool{"cluster-market": true, "windowed-large": true}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares a full-size run at the golden seed with the golden
// answers; other runs have none to compare. serve-solve has none: its
// requests depend on the run's length, and checkSolves compares them with
// direct solves instead.
func checkGolden(res *Result, g *golden, sz size) {
	if sz != full || res.Seed != g.Seed || res.Workload == serveSolve {
		return
	}
	want := g.MakespanS[res.Workload]
	if len(want) != len(res.Answers) {
		res.note(fmt.Errorf("golden: %d answers for %s, want %d", len(res.Answers), res.Workload, len(want)))
		return
	}
	for i, got := range res.Answers {
		switch {
		case upperLimit[res.Workload] && got > want[i]*(1+relTol):
			res.note(fmt.Errorf("golden: input %d makespan %.12g s above the golden %.12g s", i, got, want[i]))
		case !upperLimit[res.Workload] && !sameValue(got, want[i]):
			res.note(fmt.Errorf("golden: input %d makespan %.12g s, want %.12g s", i, got, want[i]))
		}
	}
}

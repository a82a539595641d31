package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Stamp identifies what was measured and where.
type Stamp struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

func stamp(seed int64) Stamp {
	s := Stamp{
		Commit:     "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	s.Host, _ = os.Hostname() // the stamp is informational; an unknown host stays empty
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Dirty = kv.Value == "true"
			}
		}
	}
	return s
}

// calibBlock is hashed calibRounds times per calibration sample.
var calibBlock = make([]byte, 1<<20)

const calibRounds = 8

// calibrate times a fixed SHA-256 loop, the median of five samples, in
// milliseconds. The same binary's cold-solve median has been seen to move
// by half within minutes on a shared host with no steal time recorded;
// timing this loop before and after each workload shows such drift.
func calibrate() float64 {
	var samples []float64
	for range 5 {
		t0 := time.Now()
		h := sha256.New()
		for range calibRounds {
			h.Write(calibBlock)
		}
		h.Sum(nil)
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples)
}

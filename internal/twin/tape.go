package twin

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Record/replay: the deterministic regression mode. Requests are issued
// strictly serially in schedule order — no pacing, no concurrency, no
// faults — so the daemon's responses are a pure function of its
// configuration and the request sequence. Volatile response fields
// (request_id, elapsed_ms, trace) are stripped and the rest re-marshaled
// with sorted keys; the resulting canonical transcript, and therefore the
// tape digest, must be byte-identical across runs against equivalent
// daemons. That is the contract the replay regression rides on: a change
// that must not alter any answer must leave the replay digest unchanged.

// TapeEntry is one recorded exchange.
type TapeEntry struct {
	Request json.RawMessage `json:"request"`
	Status  int             `json:"status"`
	Canon   string          `json:"canonical_response"`
}

// Tape is a recorded serial transcript.
type Tape struct {
	Scenario string      `json:"scenario"`
	Seed     uint64      `json:"seed"`
	Entries  []TapeEntry `json:"entries"`
}

// volatileFields are stripped before canonicalization: they vary per
// process or per run without the schedule artifact itself differing.
var volatileFields = []string{"request_id", "elapsed_ms", "trace"}

// Canonicalize strips volatile fields from a JSON response body and
// re-marshals it with sorted keys. Non-JSON bodies pass through verbatim.
func Canonicalize(body []byte) string {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return string(bytes.TrimSpace(body))
	}
	for _, f := range volatileFields {
		delete(m, f)
	}
	out, err := json.Marshal(m) // map marshal sorts keys
	if err != nil {
		return string(bytes.TrimSpace(body))
	}
	return string(out)
}

// postSerial issues one request body and returns status plus canonical
// response.
func postSerial(client *http.Client, base string, body []byte) (int, string, error) {
	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, Canonicalize(buf.Bytes()), nil
}

// Record issues the scenario's schedule serially against the daemon at
// base and captures the canonical transcript.
func Record(base string, sc Scenario) (*Tape, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	tape := &Tape{Scenario: sc.Name, Seed: sc.Seed}
	for i, req := range sc.Schedule() {
		body, err := json.Marshal(map[string]any{
			"workload":         req.Workload,
			"cap_per_socket_w": req.CapPerSocketW,
			"realize":          req.Realize,
			"timeout_ms":       req.TimeoutMS,
		})
		if err != nil {
			return nil, err
		}
		status, canon, err := postSerial(client, base, body)
		if err != nil {
			return nil, fmt.Errorf("record entry %d: %w", i, err)
		}
		tape.Entries = append(tape.Entries, TapeEntry{Request: body, Status: status, Canon: canon})
	}
	return tape, nil
}

// ReplayReport is the outcome of replaying a tape.
type ReplayReport struct {
	Total      int    `json:"total"`
	Mismatches int    `json:"mismatches"`
	First      string `json:"first_mismatch,omitempty"`
	Digest     string `json:"digest"`
}

// Summary renders the deterministic one-line replay summary; two replays
// of the same tape against equivalent daemons must produce byte-identical
// summaries.
func (r *ReplayReport) Summary() string {
	return fmt.Sprintf("entries=%d mismatches=%d digest=%s", r.Total, r.Mismatches, r.Digest)
}

// Replay re-issues the tape's requests serially against the daemon at base
// and compares each canonical response against the recording. The digest
// covers the *live* responses, so two replays agree iff the daemon answered
// identically both times.
func (t *Tape) Replay(base string) (*ReplayReport, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	rep := &ReplayReport{Total: len(t.Entries)}
	h := sha256.New()
	for i, e := range t.Entries {
		status, canon, err := postSerial(client, base, e.Request)
		if err != nil {
			return nil, fmt.Errorf("replay entry %d: %w", i, err)
		}
		fmt.Fprintf(h, "%d %d %s\n", i, status, canon)
		if status != e.Status || canon != e.Canon {
			rep.Mismatches++
			if rep.First == "" {
				rep.First = fmt.Sprintf("entry %d: status %d→%d, body %q → %q", i, e.Status, status, e.Canon, canon)
			}
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	return rep, nil
}

// Digest hashes the recorded transcript itself (status + canonical body per
// entry), for comparing two independent recordings.
func (t *Tape) Digest() string {
	h := sha256.New()
	for i, e := range t.Entries {
		fmt.Fprintf(h, "%d %d %s\n", i, e.Status, e.Canon)
	}
	return hex.EncodeToString(h.Sum(nil))
}

package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cdf/internal/core"
	"cdf/internal/prog"
)

// ReproVersion is the repro-artifact format version; Load rejects others.
const ReproVersion = 1

// Repro is the on-disk envelope of a failing case: everything needed to
// replay it deterministically with `cdfsim -repro <file>`. The program is
// embedded in serialized form (for generated/shrunk programs) or named by
// Bench (for workload kernels); Fault names the test-only commit fault to
// re-arm, when the failure was an injected-bug exercise.
type Repro struct {
	Version  int             `json:"version"`
	Seed     uint64          `json:"seed"`
	Mode     string          `json:"mode"`
	MaxUops  uint64          `json:"max_uops,omitempty"`
	ROBSize  int             `json:"rob_size,omitempty"`
	CUCLines int             `json:"cuc_lines,omitempty"`
	Bench    string          `json:"bench,omitempty"`
	Program  json.RawMessage `json:"program,omitempty"`
	Mem      prog.MemSpec    `json:"mem,omitempty"`
	Fault    string          `json:"fault,omitempty"`
	Reason   string          `json:"reason"` // observed failure class (SimError.Reason)
	Note     string          `json:"note"`   // human-readable failure summary
}

// WriteRepro serializes the case and failure context into dir (created if
// absent) and returns the artifact path. The filename is deterministic in
// the seed and failure class, so repeated shrinks of the same failure
// overwrite rather than accumulate.
func WriteRepro(dir string, c Case, faultName, reason, note string) (string, error) {
	r := Repro{
		Version:  ReproVersion,
		Seed:     c.Seed,
		Mode:     c.Mode.String(),
		MaxUops:  c.MaxUops,
		ROBSize:  c.ROBSize,
		CUCLines: c.CUCLines,
		Bench:    c.Bench,
		Mem:      c.Mem,
		Fault:    faultName,
		Reason:   reason,
		Note:     note,
	}
	if c.Program != nil {
		data, err := c.Program.Encode()
		if err != nil {
			return "", fmt.Errorf("harness: repro: %w", err)
		}
		r.Program = data
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("repro-%s-seed%d.json", reason, c.Seed)
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro parses a repro artifact back into a runnable case plus the
// fault to re-arm and the recorded failure class.
func LoadRepro(path string) (c Case, faultName, reason string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, "", "", err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return Case{}, "", "", fmt.Errorf("harness: repro %s: %w", path, err)
	}
	if r.Version != ReproVersion {
		return Case{}, "", "", fmt.Errorf("harness: repro %s: version %d, want %d", path, r.Version, ReproVersion)
	}
	mode, err := core.ParseMode(r.Mode)
	if err != nil {
		return Case{}, "", "", fmt.Errorf("harness: repro %s: %w", path, err)
	}
	c = Case{
		Seed:     r.Seed,
		Mode:     mode,
		MaxUops:  r.MaxUops,
		ROBSize:  r.ROBSize,
		CUCLines: r.CUCLines,
		Bench:    r.Bench,
		Mem:      r.Mem,
	}
	if len(r.Program) > 0 {
		p, err := prog.Decode(r.Program)
		if err != nil {
			return Case{}, "", "", fmt.Errorf("harness: repro %s: %w", path, err)
		}
		c.Program = p
	}
	if r.Fault != "" {
		if _, ok := Faults[r.Fault]; !ok {
			return Case{}, "", "", fmt.Errorf("harness: repro %s: unknown fault %q", path, r.Fault)
		}
	}
	return c, r.Fault, r.Reason, nil
}

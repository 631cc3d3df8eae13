package cdf

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdf/internal/harness"
)

// TestParallelSweepDeterministic is the acceptance check for the parallel
// harness: a sweep on 4 workers must produce rows bit-identical to the
// sequential run's.
func TestParallelSweepDeterministic(t *testing.T) {
	o := SuiteOptions{
		Benchmarks: []string{"astar", "lbm", "mcf"},
		Base:       Options{MaxUops: 20_000, Seed: 1},
	}
	o.Jobs = 1
	seqRows, err := Fig13Speedup(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Jobs = 4
	parRows, err := Fig13Speedup(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("parallel rows differ from sequential:\n jobs=1 %+v\n jobs=4 %+v", seqRows, parRows)
	}
}

// TestSweepFailureIsolation: one impossible benchmark must not take down
// the sweep — the healthy benchmark still gets its row, and the failures
// arrive aggregated in a *SweepError.
func TestSweepFailureIsolation(t *testing.T) {
	o := SuiteOptions{
		Benchmarks: []string{"lbm", "definitely-missing"},
		Base:       Options{MaxUops: 10_000},
		Jobs:       4,
	}
	rows, err := Fig13Speedup(o)
	if err == nil {
		t.Fatal("sweep with an unknown benchmark should report an error")
	}
	var sweep *SweepError
	if !errors.As(err, &sweep) {
		t.Fatalf("err = %T (%v), want *SweepError", err, err)
	}
	// Three modes were requested for the missing benchmark.
	if len(sweep.Failures) != 3 {
		t.Fatalf("got %d failures, want 3:\n%v", len(sweep.Failures), err)
	}
	for _, f := range sweep.Failures {
		if f.Benchmark != "definitely-missing" {
			t.Fatalf("healthy benchmark %s reported as failed: %v", f.Benchmark, f.Err)
		}
	}
	if len(rows) != 1 || rows[0].Benchmark != "lbm" {
		t.Fatalf("healthy benchmark missing from partial rows: %+v", rows)
	}
	if rows[0].CDFSpeedup <= 0 {
		t.Fatalf("partial row carries no data: %+v", rows[0])
	}
}

// TestSuiteBaseRejectsMachineKnob: SuiteOptions.Base carries run control
// only; a machine knob in it fails every case with ErrMachineKnob naming
// the knob, instead of silently changing the experiment's machines.
func TestSuiteBaseRejectsMachineKnob(t *testing.T) {
	rows, err := Fig13Speedup(SuiteOptions{Base: Options{Frontend: true}})
	if len(rows) != 0 {
		t.Fatalf("rows from a rejected Base: %+v", rows)
	}
	if !errors.Is(err, ErrMachineKnob) || !strings.Contains(err.Error(), "Frontend") {
		t.Fatalf("err = %v, want ErrMachineKnob naming Frontend", err)
	}
}

// TestSweepCancellation: a canceled context aborts queued runs but the
// sweep still returns rather than hanging.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep even starts
	o := SuiteOptions{
		Benchmarks: []string{"astar", "lbm"},
		Base:       Options{MaxUops: 10_000},
		Context:    ctx,
	}
	rows, err := Fig13Speedup(o)
	if err == nil {
		t.Fatal("canceled sweep should report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err should wrap context.Canceled: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("pre-canceled sweep produced rows: %+v", rows)
	}
}

// TestSuiteOracleClean: a short sweep with the differential oracle
// checking every retired uop completes with zero divergences.
func TestSuiteOracleClean(t *testing.T) {
	o := SuiteOptions{
		Benchmarks: []string{"astar", "mcf", "lbm"},
		Base:       Options{MaxUops: 10_000, Seed: 1, Oracle: true},
	}
	if _, err := Fig13Speedup(o); err != nil {
		t.Fatalf("oracle-checked sweep failed: %v", err)
	}
}

// TestSweepErrorSentinels: failure classes inside a SweepError stay
// reachable with errors.Is/As through the multi-error unwrap chain, and
// the failing run's seed survives the wrapping.
func TestSweepErrorSentinels(t *testing.T) {
	err := (&SweepError{Failures: []RunError{
		{Benchmark: "mcf", Mode: ModeCDF,
			Err: &harness.SimError{Reason: harness.ReasonDivergence, Seed: 7}},
	}}).orNil()
	if !errors.Is(err, harness.ErrDivergence) {
		t.Fatalf("SweepError does not expose ErrDivergence: %v", err)
	}
	if errors.Is(err, harness.ErrWatchdog) {
		t.Fatal("SweepError matches the wrong sentinel")
	}
	var sim *harness.SimError
	if !errors.As(err, &sim) || sim.Seed != 7 {
		t.Fatalf("seed lost through the sweep wrap: %v", err)
	}
}

// TestRunSeedStamped: the run seed is embedded in failure reports.
func TestRunSeedStamped(t *testing.T) {
	_, err := Run("mcf", Options{Mode: ModeCDF, MaxUops: 2_000_000, Seed: 42, Timeout: time.Microsecond})
	if err == nil {
		t.Skip("run finished inside the timeout; machine too fast to test this")
	}
	var sim *harness.SimError
	if !errors.As(err, &sim) {
		t.Fatalf("err = %v, want *SimError", err)
	}
	if sim.Seed != 42 {
		t.Fatalf("SimError seed = %d, want 42", sim.Seed)
	}
}

// TestRunTimeout: an absurdly small wall-clock budget fails the run with
// a timeout SimError instead of blocking.
func TestRunTimeout(t *testing.T) {
	_, err := Run("mcf", Options{Mode: ModeCDF, MaxUops: 2_000_000, Timeout: time.Microsecond})
	if err == nil {
		t.Skip("run finished inside the timeout; machine too fast to test this")
	}
	var sim *harness.SimError
	if !errors.As(err, &sim) || sim.Reason != harness.ReasonTimeout {
		t.Fatalf("err = %v, want timeout SimError", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error, "" = valid
	}{
		{"default", Options{}, ""},
		{"explicit budget", Options{MaxUops: 50_000, WarmupUops: 10_000}, ""},
		{"warmup eats the run", Options{MaxUops: 5_000, WarmupUops: 9_000}, "WarmupUops"},
		{"warmup eats the default run", Options{WarmupUops: DefaultMaxUops}, "WarmupUops"},
		{"bad mode", Options{Mode: Mode(99)}, "unknown mode"},
		{"negative rob", Options{ROBSize: -1}, "ROBSize"},
		{"negative cuc", Options{CUCKB: -4}, "CUCKB"},
		{"negative timeout", Options{Timeout: -time.Second}, "Timeout"},
		{"rob too small for the prf", Options{ROBSize: 8}, "PRF"},
		{"fdip without frontend", Options{FDIP: true}, "require Frontend"},
		{"fdip with perfect l1i", Options{Frontend: true, FDIP: true, PerfectL1I: true}, "FDIP"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opt.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestResultStopReason: a successful run must carry StopCompleted.
func TestResultStopReason(t *testing.T) {
	res, err := Run("lbm", Options{Mode: ModeBaseline, MaxUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopCompleted {
		t.Fatalf("stop reason = %s, want completed", res.StopReason)
	}
	if res.StopReason.Truncated() {
		t.Fatal("completed run must not be truncated")
	}
}

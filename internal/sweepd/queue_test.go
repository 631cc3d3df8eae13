package sweepd

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cdf"
	"cdf/internal/stats"
	"cdf/internal/sweepstore"
)

// TestCSVMetricNamesAreCounterRows: the sweep table's metric columns are
// looked up by name in Result.Metrics, which reads 0 for an unknown name,
// so a misspelt column would print zeros that compare equal across runs.
// Every such name must be a row of the statistics table.
func TestCSVMetricNamesAreCounterRows(t *testing.T) {
	rows := map[string]bool{}
	for _, r := range (&stats.Stats{}).Table() {
		rows[r.Name] = true
	}
	for _, name := range csvHeader[10:] {
		if !rows[name] {
			t.Errorf("csv column %q is not a statistics table row", name)
		}
	}
}

// TestWriteCSVGolden pins the exact bytes of the sweep table for a done full
// run, a done sampled run and a failed case. The smoke tests only compare
// two runs of one binary, so a change in how a column is formatted or where
// its value comes from would otherwise pass them.
func TestWriteCSVGolden(t *testing.T) {
	full, err := cdf.Run("deepcall", cdf.Options{Mode: cdf.ModeCDF, MaxUops: 20000, Seed: 1, Frontend: true, FDIP: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := cdf.Run("astar", cdf.Options{Mode: cdf.ModePRE, MaxUops: 40000, Seed: 2,
		Sampling: cdf.Sampling{Interval: 10000}})
	if err != nil {
		t.Fatal(err)
	}
	// The ipc column is the SMARTS estimator, not the pooled table row.
	if sampled.IPC == sampled.Metric("ipc") {
		t.Fatalf("sampled run: estimator IPC equals the pooled ipc row (%v); pick a run where they differ", sampled.IPC)
	}
	rows := []Row{
		{Bench: "deepcall", Mode: "cdf", Seed: 1, Status: "done", Result: &full},
		{Bench: "astar", Mode: "pre", Seed: 2, Status: "done", FromCache: true, Result: &sampled},
		{Bench: "omnetpp", Mode: "hybrid", Seed: 3, Status: "failed", Error: "sim: watchdog"},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	const want = `bench,mode,seed,status,cycles,uops,ipc,mlp,mem_traffic,energy_pj,l1i_mpki,ftq_avg_occupancy,fetch_stall_imiss,fetch_stall_btb,fetch_stall_redirect
deepcall,cdf,1,done,53560,20000,0.373413,0.000000,767,4549727.165,3.300,0.576,46327.000,2692.000,0.000
astar,pre,2,done,8264,2506,0.303122,2.720059,383,1540347.606,0.000,0.000,0.000,0.000,320.000
omnetpp,hybrid,3,failed,,,,,,,,,,,
`
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecoverJobSpecFixture pins the journal's JobSpec encoding: a job
// record written with every field under its snake_case name must recover
// to exactly these cases. A renamed json tag would otherwise pass the
// resume tests (they round-trip through the same struct) while a journal
// from an earlier server silently recovers a different machine.
func TestRecoverJobSpecFixture(t *testing.T) {
	const spec = `{"benchmarks":["mcf","astar"],"modes":["cdf","hybrid"],"seeds":[3,9],` +
		`"max_uops":50000,"warmup_uops":5000,"frontend":true,"perfect_l1i":true,"fdip":true,` +
		`"shadow_btb":true,"timeout_sec":1.5,"deadline_sec":120}`
	dir := t.TempDir()
	store, err := sweepstore.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendRecord(sweepstore.Record{Type: sweepstore.RecordJob, JobID: "j4", Spec: []byte(spec)}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store = newTestStore(t, dir)
	defer store.Close()

	jobs, nextID, err := recoverJobs(store, NewBreaker(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j4" || nextID != 5 {
		t.Fatalf("recovered %d jobs (first %v), next id %d; want j4 and 5", len(jobs), jobs, nextID)
	}
	j := jobs[0]
	if j.Spec.DeadlineSec != 120 {
		t.Errorf("DeadlineSec = %v, want 120", j.Spec.DeadlineSec)
	}
	var want []Case
	for _, b := range []string{"mcf", "astar"} {
		for _, m := range []cdf.Mode{cdf.ModeCDF, cdf.ModeHybrid} {
			for _, seed := range []uint64{3, 9} {
				want = append(want, Case{Bench: b, Opt: cdf.Options{
					Mode:       m,
					MaxUops:    50000,
					WarmupUops: 5000,
					Seed:       seed,
					Timeout:    1500 * time.Millisecond,
					Frontend:   true,
					PerfectL1I: true,
					FDIP:       true,
					ShadowBTB:  true,
				}})
			}
		}
	}
	if len(j.Cases) != len(want) {
		t.Fatalf("recovered %d cases, want %d", len(j.Cases), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(j.Cases[i], want[i]) {
			t.Fatalf("case %d:\n got %+v\nwant %+v", i, j.Cases[i], want[i])
		}
	}
}

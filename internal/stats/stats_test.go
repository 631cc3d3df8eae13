package stats

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPC(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Fatal("zero-cycle IPC should be 0")
	}
	s.Cycles, s.RetiredUops = 100, 250
	if got := s.IPC(); got != 2.5 {
		t.Fatalf("IPC = %v", got)
	}
}

func TestMLPIntegration(t *testing.T) {
	var s Stats
	s.TickMLP(0) // idle cycles don't count
	s.TickMLP(4)
	s.TickMLP(2)
	s.TickMLP(0)
	if got := s.MLP(); got != 3 {
		t.Fatalf("MLP = %v, want 3", got)
	}
	var empty Stats
	if empty.MLP() != 0 {
		t.Fatal("MLP with no samples should be 0")
	}
}

func TestMPKI(t *testing.T) {
	var s Stats
	if s.BranchMPKI() != 0 || s.LLCMPKI() != 0 {
		t.Fatal("zero-uop MPKIs should be 0")
	}
	s.RetiredUops = 10_000
	s.BranchMispredicts = 50
	s.LLCMisses = 120
	if s.BranchMPKI() != 5 {
		t.Fatalf("branch MPKI = %v", s.BranchMPKI())
	}
	if s.LLCMPKI() != 12 {
		t.Fatalf("LLC MPKI = %v", s.LLCMPKI())
	}
}

func TestMemTraffic(t *testing.T) {
	s := Stats{DRAMReads: 7, DRAMWrites: 3}
	if s.MemTraffic() != 10 {
		t.Fatal("traffic = reads + writes")
	}
}

func TestStallROBSampling(t *testing.T) {
	var s Stats
	if s.StallROBCriticalFrac() != 0 {
		t.Fatal("no samples -> 0")
	}
	s.SampleStallROB(30, 70)
	s.SampleStallROB(10, 90)
	if got := s.StallROBCriticalFrac(); got != 0.2 {
		t.Fatalf("critical frac = %v, want 0.2", got)
	}
	if s.StallROBSamples != 2 {
		t.Fatal("sample count wrong")
	}
}

func TestTableAndString(t *testing.T) {
	var s Stats
	s.Cycles, s.RetiredUops = 10, 20
	s.DRAMReads = 5
	rows := s.Table()
	if len(rows) < 20 {
		t.Fatalf("table has only %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Name < rows[i-1].Name {
			t.Fatal("table must be name-sorted")
		}
	}
	str := s.String()
	for _, want := range []string{"ipc", "cycles", "dram_reads"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() missing %q", want)
		}
	}
}

// Property: the MLP average always lies between the min and max sampled
// values, and TickMLP(0) never affects it.
func TestQuickMLPBounds(t *testing.T) {
	f := func(samples []uint8) bool {
		var s Stats
		min, max := 256, 0
		n := 0
		for _, v := range samples {
			s.TickMLP(int(v))
			if v > 0 {
				n++
				if int(v) < min {
					min = int(v)
				}
				if int(v) > max {
					max = int(v)
				}
			}
		}
		m := s.MLP()
		if n == 0 {
			return m == 0
		}
		return m >= float64(min) && m <= float64(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMergeCoversAllFields fails when a counter is added to Stats without
// extending Merge: every field is uint64 (checked), every exported field is
// set to a distinct value by reflection, the MLP accumulators through their
// API, and a Merge into a zero Stats must reproduce the struct exactly.
func TestMergeCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	var a Stats
	av := reflect.ValueOf(&a).Elem()
	unexported := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("field %s is %s; Stats fields must be uint64 for Merge/equality to be exact", f.Name, f.Type)
		}
		if f.IsExported() {
			av.Field(i).SetUint(uint64(i + 1))
		} else {
			unexported[f.Name] = true
		}
	}
	if want := map[string]bool{"mlpSum": true, "mlpCycles": true}; !reflect.DeepEqual(unexported, want) {
		t.Fatalf("unexported fields %v; this test sets only %v through the API — extend it", unexported, want)
	}
	a.TickMLP(3)
	a.TickMLP(5) // mlpSum=8, mlpCycles=2

	var b Stats
	b.Merge(&a)
	if b != a {
		bv := reflect.ValueOf(b)
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				continue
			}
			if got, want := bv.Field(i).Uint(), av.Field(i).Uint(); got != want {
				t.Errorf("Merge drops %s: got %d, want %d", typ.Field(i).Name, got, want)
			}
		}
		if b.mlpSum != a.mlpSum || b.mlpCycles != a.mlpCycles {
			t.Errorf("Merge drops MLP accumulators: got %d/%d, want %d/%d", b.mlpSum, b.mlpCycles, a.mlpSum, a.mlpCycles)
		}
		t.Fatal("Merge into zero Stats did not reproduce the source")
	}

	// Merging is additive: a second merge doubles every counter.
	b.Merge(&a)
	if b.Cycles != 2*a.Cycles || b.mlpSum != 2*a.mlpSum || b.RunaheadPrefetches != 2*a.RunaheadPrefetches {
		t.Fatal("second Merge is not additive")
	}
}

// TestRatiosZeroDenominators pins the derived-metric behaviour on empty
// runs: a Stats with nothing retired (e.g. a sampled run whose measured
// region never started) reports zeros, not NaN, in every ratio.
func TestRatiosZeroDenominators(t *testing.T) {
	var s Stats
	if v := s.IPC(); v != 0 {
		t.Errorf("IPC() = %v on zero Stats", v)
	}
	if v := s.BranchMPKI(); v != 0 {
		t.Errorf("BranchMPKI() = %v on zero Stats", v)
	}
	if v := s.LLCMPKI(); v != 0 {
		t.Errorf("LLCMPKI() = %v on zero Stats", v)
	}
	if v := s.MLP(); v != 0 {
		t.Errorf("MLP() = %v on zero Stats", v)
	}
	if v := s.StallROBCriticalFrac(); v != 0 {
		t.Errorf("StallROBCriticalFrac() = %v on zero Stats", v)
	}
	// Misses without retires: MPKI denominators stay guarded.
	s.BranchMispredicts, s.LLCMisses = 10, 10
	if s.BranchMPKI() != 0 || s.LLCMPKI() != 0 {
		t.Error("MPKI not guarded with zero retired uops")
	}
	// Geomean over interval-derived values: zeros (failed intervals) must
	// error rather than poison the aggregate.
	if _, err := Geomean([]float64{1.2, 0, 1.4}); err == nil {
		t.Error("Geomean accepted a zero sample")
	}
	if _, err := Geomean(nil); err != ErrNoSamples {
		t.Errorf("Geomean(nil) err = %v, want ErrNoSamples", err)
	}
}

// idleCounters is the idle-skip whitelist: the counters a stalled cycle may
// move, which DeltaSince tolerates and AddDelta replays.
var idleCounters = map[string]bool{
	"cycles": true, "cdf_mode_cycles": true, "fetch_stall_cycles": true,
	"fetch_stall_imiss": true, "fetch_stall_btb": true, "fetch_stall_redirect": true,
	"ftq_occupancy_sum": true, "rob_full_cycles": true, "rs_full_cycles": true,
	"lq_full_cycles": true, "sq_full_cycles": true, "full_window_stall_cycles": true,
	"stall_rob_critical": true, "stall_rob_noncritical": true, "stall_rob_samples": true,
	"mlp_sum": true, "mlp_cycles": true,
}

// TestIdleSkipWhitelist bumps each counter in turn by one: DeltaSince must
// accept exactly the idle counters, with a delta of one in that counter
// alone, and AddDelta(d, k) must equal k single bumps.
func TestIdleSkipWhitelist(t *testing.T) {
	var base Stats
	for i := range base.counters() {
		base.counters()[i] = uint64(100 + i)
	}
	seen := 0
	for i, m := range counterTab {
		t.Run(m.name, func(t *testing.T) {
			cur := base
			cur.counters()[i]++
			var d Stats
			ok := cur.DeltaSince(&base, &d)
			if want := idleCounters[m.name]; ok != want {
				t.Fatalf("DeltaSince ok = %v, want %v", ok, want)
			}
			if !ok {
				return
			}
			seen++
			for j, v := range d.counters() {
				var want uint64
				if j == i {
					want = 1
				}
				if v != want {
					t.Fatalf("delta[%s] = %d, want %d", counterTab[j].name, v, want)
				}
			}
			const k = 7
			got, want := base, base
			got.AddDelta(&d, k)
			for n := 0; n < k; n++ {
				want.counters()[i]++
			}
			if got != want {
				t.Fatalf("AddDelta(d, %d) differs from %d single bumps", k, k)
			}
		})
	}
	if seen != len(idleCounters) {
		t.Fatalf("%d idle counters accepted, want %d", seen, len(idleCounters))
	}

	// Work alongside idle ticks is still work.
	cur := base
	cur.Cycles++
	cur.RetiredUops++
	var d Stats
	if cur.DeltaSince(&base, &d) {
		t.Fatal("DeltaSince accepted a cycle that retired a uop")
	}
}

// TestTableListsEveryCounter checks that Table reports every counter exactly
// once, under its own name, with no collision with a derived row, and that
// every name reports have always used is still there.
func TestTableListsEveryCounter(t *testing.T) {
	var s Stats
	for i := range s.counters() {
		s.counters()[i] = uint64(1000 + i)
	}
	byName := map[string]float64{}
	for _, r := range s.Table() {
		if _, dup := byName[r.Name]; dup {
			t.Fatalf("row %q appears twice", r.Name)
		}
		byName[r.Name] = r.Value
	}
	for i, m := range counterTab {
		if v, ok := byName[m.name]; !ok || v != float64(1000+i) {
			t.Errorf("counter %s: row %q = %v (present %v), want %d", reflect.TypeOf(s).Field(i).Name, m.name, v, ok, 1000+i)
		}
		delete(byName, m.name)
	}
	derived := []string{"ipc", "branch_mpki", "l1i_mpki", "llc_mpki", "ftq_avg_occupancy", "mem_traffic", "mlp", "stall_rob_crit_frac"}
	for _, name := range derived {
		if _, ok := byName[name]; !ok {
			t.Errorf("derived row %q missing", name)
		}
		delete(byName, name)
	}
	if len(byName) != 0 {
		t.Errorf("rows neither counters nor derived: %v", byName)
	}
	for _, name := range []string{
		"branch_mispredicts", "btb_misses", "cdf_entries", "cdf_mode_cycles", "critical_uops_fetched",
		"cycles", "dependence_violations", "dram_reads", "dram_writes", "fetch_stall_btb",
		"fetch_stall_cycles", "fetch_stall_imiss", "fetch_stall_redirect", "full_window_stall_cycles",
		"l1d_misses", "l1i_misses", "l1i_prefetch_late", "l1i_prefetch_useful", "l1i_prefetches",
		"llc_misses", "prefetches_issued", "prefetches_useful", "retired_branches", "retired_loads",
		"retired_stores", "retired_uops", "rob_full_cycles", "runahead_intervals", "runahead_prefetches",
		"shadow_btb_hits", "shadow_btb_inserts", "traces_installed", "wrong_path_loads",
	} {
		found := false
		for _, m := range counterTab {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("report name %q is no longer a counter", name)
		}
	}
}

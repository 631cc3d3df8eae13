package cdf

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// goldenOpt is the small sweep the resume tests run: two benchmarks, two
// modes, short runs, a fixed seed so the clean reference is reproducible.
var goldenBenches = []string{"astar", "lbm"}

var goldenVariants = []variant{{mode: ModeBaseline}, {mode: ModeCDF}}

func goldenOpt() Options {
	return Options{MaxUops: 2000, Seed: 7}
}

// fastBackoff keeps retry delays out of the test's wall clock while still
// exercising the backoff path.
func fastBackoff() *sweepstore.Backoff {
	return &sweepstore.Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Seed: 1}
}

// TestSweepResumeEquivalence is the golden crash-safety proof: a sweep
// interrupted by chaos — injected panics eating retries, corrupted cache
// writes, and a kill after every couple of simulated cases — is resumed
// until it completes, and the assembled results are identical to an
// uninterrupted run's. The kill is simulated in-process by overriding
// chaos.Exit with a context cancel; each round reopens the store in
// resume mode exactly as `cdfexperiments -resume` does.
func TestSweepResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round sweep; skipped in -short")
	}
	prev := sweepstore.SetCodeVersion("golden-test")
	defer sweepstore.SetCodeVersion(prev)

	clean, sweepErr := SuiteOptions{Base: goldenOpt(), Jobs: 2}.grid(goldenBenches, goldenVariants)
	if sweepErr != nil {
		t.Fatalf("clean sweep failed: %v", sweepErr)
	}
	if len(clean) != len(goldenBenches) {
		t.Fatalf("clean sweep produced %d benchmarks, want %d", len(clean), len(goldenBenches))
	}

	dir := t.TempDir()
	var (
		rounds    int
		kills     int
		totalHits int64
		final     [][]*Result
	)
	for rounds = 1; rounds <= 50; rounds++ {
		store, err := sweepstore.Open(dir, rounds > 1)
		if err != nil {
			t.Fatalf("round %d: %v", rounds, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		chaos := harness.NewChaos(harness.ChaosConfig{
			Seed:        1,
			PanicProb:   0.15,
			CorruptProb: 0.2,
			KillAfter:   2,
		})
		chaos.Exit = func(code int) {
			if code != harness.ChaosExitCode {
				t.Errorf("injected kill used exit code %d, want %d", code, harness.ChaosExitCode)
			}
			kills++
			cancel()
		}
		store.CorruptPut = chaos.CorruptPut
		so := SuiteOptions{
			Base:         goldenOpt(),
			Jobs:         2,
			Context:      ctx,
			Store:        store,
			Retries:      3,
			RetryBackoff: fastBackoff(),
			Chaos:        chaos,
		}
		results, sweepErr := so.grid(goldenBenches, goldenVariants)
		totalHits += store.Stats().Hits
		cancel()
		if cerr := store.Close(); cerr != nil {
			t.Fatalf("round %d: close: %v", rounds, cerr)
		}
		if sweepErr == nil {
			final = results
			break
		}
		final = nil
	}
	if final == nil {
		t.Fatalf("sweep did not complete within 50 kill/resume rounds")
	}
	if kills == 0 {
		t.Fatalf("chaos injected no kills; the test proved nothing")
	}
	if totalHits == 0 {
		t.Fatalf("no resume round served a cache hit; resume path untested")
	}
	t.Logf("converged after %d round(s), %d injected kill(s), %d cache hit(s)", rounds, kills, totalHits)

	for i, b := range goldenBenches {
		for j, v := range goldenVariants {
			want, got := clean[i][j], final[i][j]
			if want == nil || got == nil {
				t.Fatalf("%s/%s: missing result (clean %v, resumed %v)", b, v.mode, want != nil, got != nil)
			}
			if !reflect.DeepEqual(*got, *want) {
				t.Errorf("%s/%s: resumed result differs from clean run:\n got %+v\nwant %+v", b, v.mode, *got, *want)
			}
		}
	}
}

// TestRunCachedCorruptEntryResimulated proves the acceptance criterion
// that a hash-mismatched cache entry is re-simulated, never served: damage
// the single object on disk, re-run, and require a simulate (not a hit)
// that still reproduces the original result and rewrites the entry clean.
func TestRunCachedCorruptEntryResimulated(t *testing.T) {
	prev := sweepstore.SetCodeVersion("golden-test")
	defer sweepstore.SetCodeVersion(prev)

	dir := t.TempDir()
	opt := goldenOpt()
	opt.Mode = ModeCDF
	ctx := context.Background()

	open := func() *sweepstore.Store {
		t.Helper()
		store, err := sweepstore.Open(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	store := open()
	want, fromCache, err := RunCached(ctx, store, "astar", opt)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("first run reported a cache hit in an empty store")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in every cached object (there is exactly one).
	objects := 0
	err = filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		objects++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x40
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if objects != 1 {
		t.Fatalf("found %d cached objects, want 1", objects)
	}

	store = open()
	got, fromCache, err := RunCached(ctx, store, "astar", opt)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("corrupt cache entry was served instead of re-simulated")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-simulated result differs from original:\n got %+v\nwant %+v", got, want)
	}
	if st := store.Stats(); st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats after corrupt re-run: %+v, want 1 miss and 1 put", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The re-simulation rewrote the entry clean: third run is a pure hit.
	store = open()
	got, fromCache, err = RunCached(ctx, store, "astar", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Fatal("rewritten entry was not served from cache")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached result differs from original:\n got %+v\nwant %+v", got, want)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCachedVersionStaleResimulated proves that a result produced by a
// different simulator build is never served: bump the code version and the
// same case must re-simulate under a fresh key.
func TestRunCachedVersionStaleResimulated(t *testing.T) {
	prev := sweepstore.SetCodeVersion("golden-test-v1")
	defer sweepstore.SetCodeVersion(prev)

	dir := t.TempDir()
	opt := goldenOpt()
	ctx := context.Background()

	store, err := sweepstore.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, fromCache, err := RunCached(ctx, store, "lbm", opt); err != nil || fromCache {
		t.Fatalf("first run: fromCache=%v err=%v", fromCache, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	sweepstore.SetCodeVersion("golden-test-v2")
	store, err = sweepstore.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, fromCache, err := RunCached(ctx, store, "lbm", opt); err != nil || fromCache {
		t.Fatalf("run under new code version: fromCache=%v err=%v, want a re-simulation", fromCache, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

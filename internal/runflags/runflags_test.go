package runflags

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"cdf"
)

// TestFlagsFillOptions: every shared flag lands in its cdf.Options field,
// uop counts accept unit suffixes, and every flag documents itself.
func TestFlagsFillOptions(t *testing.T) {
	var o cdf.Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Run(fs, &o)
	Frontend(fs, &o)
	err := fs.Parse([]string{
		"-uops", "50k", "-warmup", "10k",
		"-sample-interval", "250k", "-sample-measure", "8k", "-sample-warmup", "4k",
		"-seed", "7", "-timeout", "2s", "-paranoid", "-oracle", "-slowpath",
		"-frontend", "-fdip", "-shadow-btb",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := cdf.Options{
		MaxUops:    50_000,
		WarmupUops: 10_000,
		Sampling:   cdf.Sampling{Interval: 250_000, Measure: 8_000, Warmup: 4_000},
		Seed:       7,
		Timeout:    2 * time.Second,
		Paranoid:   true,
		Oracle:     true,
		SlowPath:   true,
		Frontend:   true,
		FDIP:       true,
		ShadowBTB:  true,
	}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("parsed options\n got %+v\nwant %+v", o, want)
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if f.Usage == "" {
			t.Errorf("-%s has no usage text", f.Name)
		}
	})
	if n != 14 {
		t.Fatalf("registered %d flags, want 14", n)
	}
}

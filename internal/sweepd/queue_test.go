package sweepd

import (
	"testing"

	"cdf/internal/stats"
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

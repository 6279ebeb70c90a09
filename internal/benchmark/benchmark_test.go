package benchmark

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func smallOpts(t *testing.T) Options {
	t.Helper()
	return Options{WorkDir: t.TempDir(), Scale: SmallScale(), Seed: 7}
}

// TestAllExperimentsRun executes every registered experiment at the
// small scale — the end-to-end integration test for the whole harness.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			rep, err := exp.Run(smallOpts(t))
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if rep.ID != exp.ID {
				t.Errorf("report ID %q, want %q", rep.ID, exp.ID)
			}
			if len(rep.Rows) == 0 {
				t.Errorf("%s produced no rows", exp.ID)
			}
			for i, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Errorf("%s row %d has %d cells, want %d", exp.ID, i, len(row), len(rep.Columns))
				}
			}
			var buf bytes.Buffer
			if err := rep.Print(&buf); err != nil {
				t.Fatalf("Print: %v", err)
			}
			if !strings.Contains(buf.String(), exp.ID) {
				t.Errorf("printed report missing ID header")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig4"); err != nil {
		t.Errorf("fig4: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown: want error")
	}
}

func TestAllOrdered(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("%d experiments registered, want 23", len(all))
	}
	if all[0].ID != "table1" {
		t.Errorf("first = %s", all[0].ID)
	}
	// Figures appear in numeric order.
	var figOrder []int
	for _, e := range all {
		var n int
		if _, err := fmt.Sscanf(e.ID, "fig%d", &n); err == nil {
			figOrder = append(figOrder, n)
		}
	}
	for i := 1; i < len(figOrder); i++ {
		if figOrder[i] < figOrder[i-1] {
			t.Errorf("figures out of order: %v", figOrder)
			break
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	var o Options
	if err := o.fill(); err == nil {
		t.Error("missing WorkDir: want error")
	}
	o = Options{WorkDir: t.TempDir()}
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	if len(o.Scale.Consumers) == 0 || o.Seed == 0 || o.Scale.Days == 0 {
		t.Errorf("fill did not apply defaults: %+v", o)
	}
}

func TestReportPrintAlignment(t *testing.T) {
	rep := &Report{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "longcolumn"},
		Notes:   []string{"a note"},
	}
	rep.AddRow("wide-cell-value", "1")
	var buf bytes.Buffer
	if err := rep.Print(&buf); err != nil {
		t.Fatalf("Print: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "wide-cell-value") || !strings.Contains(out, "note: a note") {
		t.Errorf("print output:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtMB(1<<20) != "1.00 MiB" {
		t.Errorf("fmtMB = %s", fmtMB(1<<20))
	}
	if fmtRate(10, 2*time.Second) != "5.0" {
		t.Errorf("fmtRate = %s", fmtRate(10, 2*time.Second))
	}
	if fmtRate(10, 0) != "inf" {
		t.Error("fmtRate zero duration")
	}
	if fmtSpeedup(2*time.Second, time.Second) != "2.00x" {
		t.Errorf("fmtSpeedup = %s", fmtSpeedup(2*time.Second, time.Second))
	}
	if fmtSpeedup(time.Second, 0) != "inf" {
		t.Error("fmtSpeedup zero")
	}
}

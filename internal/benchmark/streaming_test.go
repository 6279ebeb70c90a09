package benchmark

import (
	"strconv"
	"strings"
	"testing"
)

// TestStreamingDetectionQuality pins the streaming experiment's
// detection quality at the small scale: recall as caught/injected and
// the false-alarm count, per detector. All three spikes injected at
// this scale land in the first week, the sigma detector's warm-up
// (seven samples per hour of day), so it catches none of them; the
// profile detector, trained on a separate year, catches all three.
// Neither raises a false alarm.
func TestStreamingDetectionQuality(t *testing.T) {
	want := map[string]struct {
		recall      string
		falseAlarms int
	}{
		"profile (PAR + 3-line)":  {"3/3", 0},
		"sigma (online mean/std)": {"0/3", 0},
	}
	rep, err := Streaming(smallOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		for i, c := range rep.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("report has no %q column: %v", name, rep.Columns)
		return -1
	}
	recallCol, alarmCol := col("recall"), col("false alarms")
	if len(rep.Rows) != len(want) {
		t.Fatalf("%d detectors reported, want %d", len(rep.Rows), len(want))
	}
	for _, row := range rep.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected detector %q", row[0])
		}
		if row[recallCol] != w.recall {
			t.Errorf("%s: recall %s, want %s", row[0], row[recallCol], w.recall)
		}
		count, _, _ := strings.Cut(row[alarmCol], " ")
		n, err := strconv.Atoi(count)
		if err != nil {
			t.Fatalf("%s: false alarms %q: %v", row[0], row[alarmCol], err)
		}
		if n > w.falseAlarms {
			t.Errorf("%s: %d false alarms, want at most %d", row[0], n, w.falseAlarms)
		}
	}
}

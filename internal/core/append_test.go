package core

import (
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// TestCheckBatch walks batches over two households that hold 24 hours
// each and a temperature column of 24 hours: redelivered hours pass,
// each household's next hour and the column move with the batch, and
// the first reading that breaks a contract names the error.
func TestCheckBatch(t *testing.T) {
	committed := func(id timeseries.ID) int {
		if id == 4 || id == 5 {
			return 24
		}
		return 0
	}
	r := func(id timeseries.ID, h int) Reading { return Reading{ID: id, Hour: h} }
	for _, tc := range []struct {
		name  string
		batch []Reading
		err   string // "" when the batch passes
	}{
		{"empty", nil, ""},
		{"redelivered and fresh", []Reading{r(4, 3), r(4, 24), r(4, 25), r(5, 24), r(4, 24)}, ""},
		{"new household", []Reading{r(9, 0), r(9, 1)}, ""},
		{"gap on a later household", []Reading{r(4, 24), r(4, 25), r(5, 24), r(5, 26)}, "household 5: gap at hour 26, expected 25"},
		{"temperature gap", []Reading{r(4, 24), r(5, 24), r(4, 26)}, "temperature gap: reading at hour 26, column covers 25"},
		{"negative hour", []Reading{r(4, 24), r(5, -1)}, "negative hour -1 for household 5"},
		{"household id 0", []Reading{r(4, 24), r(0, 0)}, "household id must be positive, got 0"},
		{"new household starts at 0", []Reading{r(9, 1)}, "household 9: gap at hour 1, expected 0"},
	} {
		err := CheckBatch(tc.batch, committed, 24)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}

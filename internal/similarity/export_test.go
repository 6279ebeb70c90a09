package similarity

import "github.com/smartmeter/smartbench/internal/timeseries"

// Segment and Band are the engine's constants, for tests that vary them.
const Segment, Band = segment, band

// ComputePruned is the engine at the given segment length and band, with
// the number of tile pairs the bound skipped.
func ComputePruned(d *timeseries.Dataset, k, workers, seg, band int) ([]*Result, int, error) {
	return computeBlocked(d, k, workers, seg, band)
}

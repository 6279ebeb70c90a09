package exec

import (
	"context"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// DrainDataset is the extract stage of a similarity run on its own: it
// opens the source's cursors as the run does at this worker count and
// drains them into the dataset the kernel would read.
func DrainDataset(ctx context.Context, src Source, workers int, policy core.FailPolicy) (*timeseries.Dataset, error) {
	temp, err := src.Temperature()
	if err != nil {
		return nil, err
	}
	return extractDataset(ctx, src, temp, workers, &contain{policy: policy}, &core.Phases{})
}

// Block is how many series a partition extracts per kernel slot.
const Block = block

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
	curs, err := openDrain(ctx, src, workers, &core.Phases{})
	if err != nil {
		return nil, err
	}
	return drainDataset(ctx, curs, temp, &contain{policy: policy})
}

// Block is how many series a partition extracts per kernel slot.
const Block = block

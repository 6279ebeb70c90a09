package core

// PartitionedSource is how every source opens its cursors: engines,
// live snapshots and in-memory datasets. Storage splits into disjoint
// shards extracted independently: the file engine's per-consumer file
// list (or its big-file reading index, by row ranges), the row store's
// contiguous household ranges (= contiguous heap-page ranges, since
// Load stores tuples in household order), the column store's consumer
// ranges, and the result partitions of the cluster engine's extraction
// job (one per reduce task or per DFS split).
//
// The execution layer (internal/exec) asks for up to Spec.Workers
// cursors, so a single-threaded run (§5.3.3) is NewCursors(1) and a
// multi-threaded one (§5.3.4) the same path at W. Each partition runs
// on a goroutine of its own, its results joined in partition order, and
// the run's workers are shared out among the partitions, so fewer
// partitions than workers still compute on every worker. The
// similarity task drains the same partitions in parallel into one
// matrix, each into the rows after the earlier partitions' SizeHints.
type PartitionedSource interface {
	// NewCursors opens up to max independent cursors that jointly cover
	// the loaded dataset exactly once: partitions are pairwise disjoint
	// and the union of their household IDs is the dataset's. Each cursor
	// honours the Cursor contract within its partition (ascending IDs,
	// EOF stability, Reset replay, idempotent Close). A store that
	// cannot split (a series-per-line file, read in one pass) answers
	// with one cursor, an empty store with none, and none answers with
	// more than max; max must be >= 1.
	//
	// The cursors may be driven concurrently, one goroutine per cursor;
	// Close on each is required regardless of how far it was drained.
	NewCursors(max int) ([]Cursor, error)
}

// PartitionRanges splits n items into at most max contiguous,
// near-equal [lo, hi) ranges. It returns fewer ranges when n < max and
// nil when n == 0 or max <= 0. Engines use it to shard ID lists, file
// lists, and consumer columns into partition cursors.
func PartitionRanges(n, max int) [][2]int {
	if n <= 0 || max <= 0 {
		return nil
	}
	parts := max
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

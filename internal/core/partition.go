package core

// PartitionedSource is optionally implemented by engines whose storage
// splits into disjoint shards that can be extracted independently: the
// file engine shards its per-consumer file list (and its big-file
// reading index by row ranges), the row store shards the heap by
// contiguous household ranges (= contiguous page ranges, since tuples
// are bulk-loaded in household order), the column store by consumer
// segment groups, and the cluster engine by result partition of its
// extraction job (one per reduce task or per DFS split).
//
// The execution layer (internal/exec) uses it at more than one worker:
// each partition cursor gets a goroutine of its own, which extracts,
// computes and emits its consumers, and the partitions' results are
// joined in partition order. The run's workers are shared out among the
// partitions, so fewer partitions than workers still compute on every
// worker. A source without it runs as one partition over its
// NewCursor. The similarity task drains the same partitions in parallel
// into one matrix, each into the rows after the earlier partitions'
// SizeHints. A live snapshot cursor that splits (the column and row
// stores') implements it too.
type PartitionedSource interface {
	// NewCursors opens up to max independent cursors that jointly cover
	// the loaded dataset exactly once: partitions are pairwise disjoint
	// and the union of their household IDs equals the full cursor's ID
	// set. Each returned cursor honours the Cursor contract within its
	// partition (ascending IDs, EOF stability, Reset replay, idempotent
	// Close). Implementations may return fewer than max cursors — one
	// when the storage cannot be split, none when it is empty — but
	// never more, and max must be >= 1.
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

// Fixture for the hotalloc analyzer: internal/colcodec is implicitly
// hot — every meter reading funnels through its encode/decode loops —
// so the whole package is held to the no-per-iteration-allocation
// standard, not just cursor Next methods.
package colcodec

import "fmt"

func encodeAll(vals []float64) []byte {
	var out []byte
	for _, v := range vals {
		s := fmt.Sprintf("%x", v)  // want "fmt.Sprintf allocates on every iteration"
		out = append(out, s...)    // want "append to out grows an un-capped slice"
	}
	return out
}

// Pre-sized scratch and plain arithmetic stay silent.
func deltas(vals []int64) []int64 {
	out := make([]int64, 0, len(vals))
	prev := int64(0)
	for _, v := range vals {
		out = append(out, v-prev)
		prev = v
	}
	return out
}

// fmt.Errorf on the return path runs once, not per iteration: exempt.
func validate(vals []float64) error {
	for i, v := range vals {
		if v < 0 {
			return fmt.Errorf("negative value %v at %d", v, i)
		}
	}
	return nil
}

// The fixed-point unpacker runs once per stored reading: an error value
// built per delta, or a buffer grown per delta, is what hotFuncs names
// decodeFixed and unpackDeltas to keep out.
func unpackDeltas(body []byte, dst []float64, w uint) error {
	var errs []error
	for j := range dst {
		if int(uint(j)*w/8) >= len(body) {
			errs = append(errs, fmt.Errorf("delta %d past the payload", j)) // want "fmt.Errorf allocates on every iteration" "append to errs grows an un-capped slice"
			continue
		}
		dst[j] = float64(body[uint(j)*w/8])
	}
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

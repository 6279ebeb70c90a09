package colcodec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// decodeFixedNaive is the fixed-point decoder as it was before
// decodeFixed learned to unpack a word at a time: one bitReader per
// mini-batch, refilled a byte at a time, an error checked per value. It
// stays here as the oracle decodeFixed is held to, bit for bit and byte
// for byte.
func decodeFixedNaive(b []byte, dst []float64) (int, error) {
	if len(b) < 1 {
		return 0, ErrCorrupt
	}
	scale := int(b[0])
	if scale > maxFixedScale {
		return 0, ErrCorrupt
	}
	p := pow10[scale]
	off := 1
	u, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	off += n
	cur := unzigzag(u)
	dst[0] = float64(cur) / p
	i := 1
	for i < len(dst) {
		if off >= len(b) {
			return 0, ErrCorrupt
		}
		w := uint(b[off])
		off++
		end := i + deltaBatch
		if end > len(dst) {
			end = len(dst)
		}
		if w > 64 {
			return 0, ErrCorrupt
		}
		if w == 0 {
			v := float64(cur) / p
			for ; i < end; i++ {
				dst[i] = v
			}
			continue
		}
		br := bitReader{b: b[off:]}
		for ; i < end; i++ {
			u, err := br.read(w)
			if err != nil {
				return 0, err
			}
			cur += unzigzag(u)
			dst[i] = float64(cur) / p
		}
		off += br.consumed()
	}
	return off, nil
}

// fixedBody builds the body of a fixed-mode payload (what follows the
// mode byte) holding n values whose every mini-batch has delta width w,
// and returns it with the offsets of its width bytes.
func fixedBody(rng *rand.Rand, n int, w uint, scale int) (body []byte, widthAt []int) {
	body = append(body, byte(scale))
	body = binary.AppendUvarint(body, zigzag(rng.Int63n(1<<40)-1<<39))
	zz := make([]uint64, 0, deltaBatch)
	for left := n - 1; left > 0; left -= len(zz) {
		m := left
		if m > deltaBatch {
			m = deltaBatch
		}
		zz = zz[:m]
		for i := range zz {
			zz[i] = rng.Uint64()
			if w < 64 {
				zz[i] &= 1<<w - 1
			}
		}
		if w > 0 {
			zz[rng.Intn(m)] |= 1 << (w - 1) // the batch's width is exactly w
		}
		widthAt = append(widthAt, len(body))
		body = append(body, byte(w))
		body = appendPacked(body, zz, w)
	}
	return body, widthAt
}

// agree runs decodeFixed over body on the path this CPU selects and on
// the Go lanes alone, and the oracle, and requires the same verdict from
// all three: the same error-or-not, and on success the same bytes
// consumed and the same float bits.
func agree(t *testing.T, what string, body []byte, n int) (used int, err error) {
	t.Helper()
	want := agreeBuf[0][:n]
	wantUsed, wantErr := decodeFixedNaive(body, want)
	for _, lanes := range []bool{false, true} {
		got := agreeBuf[1][:n]
		decode := func() { used, err = decodeFixed(body, got) }
		path := "vector"
		if lanes {
			withLanes(decode)
			path = "Go lanes"
		} else {
			decode()
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: decodeFixed (%s) err %v, oracle err %v", what, path, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error %v (%s) is not ErrCorrupt", what, err, path)
			}
			continue
		}
		if used != wantUsed {
			t.Fatalf("%s: consumed %d bytes (%s), oracle %d", what, used, path, wantUsed)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d bits %016x (%s), oracle %016x", what, i,
					math.Float64bits(got[i]), path, math.Float64bits(want[i]))
			}
		}
	}
	if err != nil {
		return 0, err
	}
	return used, nil
}

var sweepLens = []int{1, 2, 127, 128, 129, 1008, 8760}

// agreeBuf holds the oracle's output and a decodeFixed path's; the
// longest sweep length sizes it.
var agreeBuf [2][8760]float64

// TestDecodeFixedMatchesNaiveBits sweeps every delta width, the block
// lengths around the mini-batch and the store's block sizes, and every
// scale. The body ends with its last mini-batch, so the last deltas sit
// within eight bytes of the buffer's end and take the bitReader tail;
// padded copies put the same deltas on the word path.
func TestDecodeFixedMatchesNaiveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for w := uint(0); w <= 64; w++ {
		for _, n := range sweepLens {
			for scale := 0; scale <= maxFixedScale; scale++ {
				body, _ := fixedBody(rng, n, w, scale)
				used, err := agree(t, "exact", body, n)
				if err != nil {
					t.Fatalf("w=%d n=%d scale=%d: valid body refused: %v", w, n, scale, err)
				}
				if used != len(body) {
					t.Fatalf("w=%d n=%d scale=%d: consumed %d of %d bytes", w, n, scale, used, len(body))
				}
				for pad := 1; pad <= 9; pad += 4 {
					padded := append(append([]byte(nil), body...), make([]byte, pad)...)
					if used, _ := agree(t, "padded", padded, n); used != len(body) {
						t.Fatalf("w=%d n=%d scale=%d pad=%d: consumed %d, want %d", w, n, scale, pad, used, len(body))
					}
				}
			}
		}
	}
}

// TestDecodeFixedHostile truncates bodies and rewrites their width
// bytes: ErrCorrupt or the oracle's answer, never a panic. A body that
// lost bytes can never decode (every byte of a fixed body is needed).
func TestDecodeFixedHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for w := uint(0); w <= 64; w++ {
		for _, n := range sweepLens {
			body, widthAt := fixedBody(rng, n, w, int(w)%(maxFixedScale+1))
			// Every cut of a short body; of a long one, every cut near
			// either end and sixteen spread between.
			stride := len(body)/16 + 1
			for cut := 0; cut < len(body); cut++ {
				if n > 129 && cut > 40 && cut < len(body)-40 && cut%stride != 0 {
					continue
				}
				if _, err := agree(t, "truncated", body[:cut], n); err == nil {
					t.Fatalf("w=%d n=%d: cut at %d of %d bytes decoded", w, n, cut, len(body))
				}
			}
			// The first, a middle and the last mini-batch's width byte.
			for k := 0; k < len(widthAt); k += max(1, (len(widthAt)-1)/2) {
				at := widthAt[k]
				for _, bad := range []byte{0, 1, byte(w) + 1, 56, 57, 64, 65, 255} {
					mut := append([]byte(nil), body...)
					mut[at] = bad
					_, _ = agree(t, "width", mut, n)
				}
			}
		}
	}
}

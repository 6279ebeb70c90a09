package meterdata

import (
	"bytes"
	"fmt"
	"strconv"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// This file is the decode hot path: byte-slice field scanning that
// replaces the per-line strings.Split / sc.Text() allocations in the
// readers. Every engine's cold extract funnels through these functions
// (directly, or via ScanReadings/ScanSeries), so the parallel
// extraction layer in internal/exec is fed by an allocation-free inner
// loop — parse_test.go pins the allocation counts with AllocsPerRun
// and the float fast path bit-identical to strconv.ParseFloat.

// pow10tab holds the powers of ten exactly representable as float64
// (10^22 is the largest). Dividing an exactly-represented integer
// mantissa by an exact power of ten is a single correctly-rounded IEEE
// operation, which is precisely what strconv's own exact fast path
// computes — so the results are bit-identical.
var pow10tab = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloatBytes parses a decimal float from b without allocating.
// The fast path covers plain "[-]ddd[.ddd]" forms whose integer
// mantissa fits in 53 bits and whose fractional length is at most 22
// digits — every value the repo's writers emit. Anything else
// (exponents, huge mantissas, inf/NaN spellings) falls back to
// strconv.ParseFloat, so the result is always bit-identical to it.
func parseFloatBytes(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("meterdata: empty number")
	}
	i := 0
	neg := false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
	}
	var mant uint64
	digits, frac := 0, 0
	sawDot, sawDigit := false, false
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			if digits >= 19 { // next digit could overflow uint64
				return parseFloatSlow(b)
			}
			mant = mant*10 + uint64(c-'0')
			digits++
			sawDigit = true
			if sawDot {
				frac++
			}
		case c == '.' && !sawDot:
			sawDot = true
		default:
			return parseFloatSlow(b)
		}
	}
	if !sawDigit || mant>>53 != 0 || frac > 22 {
		return parseFloatSlow(b)
	}
	f := float64(mant) // exact: mant < 2^53
	if frac > 0 {
		f /= pow10tab[frac] // one correctly-rounded IEEE divide
	}
	if neg {
		f = -f
	}
	return f, nil
}

// parseFloatSlow is the allocating strconv fallback for inputs outside
// the exact fast path.
func parseFloatSlow(b []byte) (float64, error) {
	return strconv.ParseFloat(string(b), 64)
}

// parseIntBytes parses a decimal integer from b without allocating,
// falling back to strconv for anything but plain "[-]ddd" forms that
// fit comfortably in an int64.
func parseIntBytes(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("meterdata: empty integer")
	}
	i := 0
	neg := false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) || len(b)-i > 18 { // 18 digits always fit in int64
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseReadingBytes parses one "household,hour,consumption" row from a
// byte slice without allocating.
func parseReadingBytes(line []byte) (Reading, error) {
	c1 := bytes.IndexByte(line, ',')
	if c1 < 0 {
		return Reading{}, fmt.Errorf("meterdata: row %q: missing fields", line)
	}
	rest := line[c1+1:]
	c2 := bytes.IndexByte(rest, ',')
	if c2 < 0 {
		return Reading{}, fmt.Errorf("meterdata: row %q: missing consumption", line)
	}
	id, err := parseIntBytes(line[:c1])
	if err != nil {
		return Reading{}, fmt.Errorf("meterdata: row %q: bad household: %w", line, err)
	}
	hour, err := parseIntBytes(rest[:c2])
	if err != nil {
		return Reading{}, fmt.Errorf("meterdata: row %q: bad hour: %w", line, err)
	}
	if int64(int(hour)) != hour {
		// Where int is 32 bits, int(hour) would wrap 2^32+1 to hour 1.
		return Reading{}, fmt.Errorf("meterdata: row %q: hour out of range", line)
	}
	v, err := parseFloatBytes(rest[c2+1:])
	if err != nil {
		return Reading{}, fmt.Errorf("meterdata: row %q: bad consumption: %w", line, err)
	}
	return Reading{ID: timeseries.ID(id), Hour: int(hour), Consumption: v}, nil
}

// parseSeriesBytes parses one "household,r0,r1,..." row by scanning
// comma positions in place — no field-slice allocation. The only
// allocations are the returned Series and its readings buffer, which
// the caller retains.
func parseSeriesBytes(line []byte) (*timeseries.Series, error) {
	c1 := bytes.IndexByte(line, ',')
	if c1 < 0 {
		return nil, fmt.Errorf("meterdata: series row has 1 field")
	}
	id, err := parseIntBytes(line[:c1])
	if err != nil {
		return nil, fmt.Errorf("meterdata: series row: bad household: %w", err)
	}
	rest := line[c1+1:]
	readings := make([]float64, 0, bytes.Count(rest, commaSep)+1)
	for {
		c := bytes.IndexByte(rest, ',')
		field := rest
		if c >= 0 {
			field, rest = rest[:c], rest[c+1:]
		}
		v, err := parseFloatBytes(field)
		if err != nil {
			return nil, fmt.Errorf("meterdata: series %d reading %d: %w", id, len(readings), err)
		}
		readings = append(readings, v)
		if c < 0 {
			break
		}
	}
	return &timeseries.Series{ID: timeseries.ID(id), Readings: readings}, nil
}

var commaSep = []byte{','}

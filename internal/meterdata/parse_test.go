package meterdata

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestParseFloatBytesMatchesStrconv pins the fast path bit-identical to
// strconv.ParseFloat: every accepted input must produce the exact same
// IEEE bit pattern, and every rejected input must also be rejected by
// strconv (the fast path only ever bails *to* strconv, so acceptance
// sets are identical by construction — this test guards the values).
func TestParseFloatBytesMatchesStrconv(t *testing.T) {
	check := func(in string) {
		t.Helper()
		got, gotErr := parseFloatBytes([]byte(in))
		want, wantErr := strconv.ParseFloat(in, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parseFloatBytes(%q) err = %v, strconv err = %v", in, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloatBytes(%q) = %v (%#x), strconv = %v (%#x)",
				in, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	// Deterministic edge cases: fast-path shapes, fallback shapes, and
	// malformed rows.
	for _, in := range []string{
		"0", "1", "-1", "+1", "0.5", "-0.5", "3.141592653589793",
		"-0", "-0.0", "0.000", "00012.500", ".5", "5.", "-.25",
		"9007199254740991",          // 2^53-1: largest exact mantissa
		"9007199254740992",          // 2^53: forces the slow path
		"18446744073709551616",      // > uint64: digit-count bail
		"0.0000000000000000000001",  // frac 22: last exact power
		"0.00000000000000000000001", // frac 23: slow path
		"1e5", "1E5", "1e-3", "2.5e10", "inf", "-Inf", "NaN", "nan",
		"", "-", "+", ".", "-.", "1.2.3", "1,5", " 1", "1 ", "abc",
		"0x1p4", "1_000",
	} {
		check(in)
	}

	// Randomized round-trips through the same formatting the repo's
	// writers use (%g and fixed-point), plus raw decimal strings.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'f', rng.Intn(8), 64))
		check(fmt.Sprintf("%d.%0*d", rng.Intn(1000), rng.Intn(6)+1, rng.Intn(100000)))
	}
}

func TestParseIntBytesMatchesStrconv(t *testing.T) {
	for _, in := range []string{
		"0", "7", "-7", "+7", "123456789012345678", "-123456789012345678",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"", "-", "+", "1.5", "abc", "007",
	} {
		got, gotErr := parseIntBytes([]byte(in))
		want, wantErr := strconv.ParseInt(in, 10, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parseIntBytes(%q) err = %v, strconv err = %v", in, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("parseIntBytes(%q) = %d, strconv = %d", in, got, want)
		}
	}
}

// TestParseReadingBytesAllocs pins the reading-per-line hot path at
// zero allocations per row — the property the streaming extract layer
// depends on (one ScanReadings pass allocates nothing per reading).
func TestParseReadingBytesAllocs(t *testing.T) {
	line := []byte("1042,17,1.375")
	if n := testing.AllocsPerRun(200, func() {
		rd, err := parseReadingBytes(line)
		if err != nil || rd.Hour != 17 {
			t.Fatal("parse failed")
		}
	}); n != 0 {
		t.Fatalf("parseReadingBytes allocates %v per run, want 0", n)
	}
}

// TestParseSeriesBytesAllocs pins the series-per-line path at exactly
// two allocations per row: the Series value and its readings buffer —
// both retained by the caller. No field-slice, no string copies.
func TestParseSeriesBytesAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("31")
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&sb, ",%d.%03d", i%9, i*37%1000)
	}
	line := []byte(sb.String())
	if n := testing.AllocsPerRun(200, func() {
		s, err := parseSeriesBytes(line)
		if err != nil || len(s.Readings) != 48 {
			t.Fatal("parse failed")
		}
	}); n != 2 {
		t.Fatalf("parseSeriesBytes allocates %v per run, want 2 (Series + readings)", n)
	}
}

// TestParseSeriesBytesFieldSemantics pins the strings.Split-equivalent
// field semantics the byte scanner must keep: a trailing comma is an
// empty final field (an error), not silently dropped.
func TestParseSeriesBytesFieldSemantics(t *testing.T) {
	if _, err := parseSeriesBytes([]byte("5,")); err == nil {
		t.Fatal("trailing empty field: want error, got nil")
	}
	if _, err := parseSeriesBytes([]byte("5,1.0,,2.0")); err == nil {
		t.Fatal("interior empty field: want error, got nil")
	}
	if _, err := parseSeriesBytes([]byte("5")); err == nil {
		t.Fatal("single field: want error, got nil")
	}
	s, err := parseSeriesBytes([]byte("5,1.5,2.25"))
	if err != nil {
		t.Fatalf("valid row: %v", err)
	}
	if s.ID != 5 || len(s.Readings) != 2 || s.Readings[0] != 1.5 || s.Readings[1] != 2.25 {
		t.Fatalf("valid row parsed wrong: %+v", s)
	}
}

// TestByteParsersAgreeWithStringAPI keeps the exported string wrappers
// and the byte parsers interchangeable.
func TestByteParsersAgreeWithStringAPI(t *testing.T) {
	rd, err := ParseReadingLine("9,3,0.125")
	if err != nil || rd.ID != 9 || rd.Hour != 3 || rd.Consumption != 0.125 {
		t.Fatalf("ParseReadingLine: %+v, %v", rd, err)
	}
	s, err := ParseSeriesLine("9,0.125,0.25")
	if err != nil || s.ID != 9 || len(s.Readings) != 2 {
		t.Fatalf("ParseSeriesLine: %+v, %v", s, err)
	}
}

package stats

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVXDetectionMatchesKernel holds hasAVX to the "avx" flag Linux
// reports (set only when the CPU has AVX and the kernel saves YMM
// state): if detection failed silently, every bit-for-bit test above
// would compare the Go lanes with themselves.
func TestAVXDetectionMatchesKernel(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx"); hasAVX() != want || useAVX != want {
			t.Errorf("hasAVX() = %v, useAVX = %v; /proc/cpuinfo avx = %v", hasAVX(), useAVX, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

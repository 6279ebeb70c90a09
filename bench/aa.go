package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA is the A/A gate: two sets of n runs of every workload, the sets
// interleaved so that drift in the machine lands on both, every run in
// its own process and on its own seed, the way the pipeline that judges
// a change runs them. For every workload and end-to-end metric it
// prints both medians, the gap between them and each set's spread (the
// distance between its quartiles, as a share of its median) beside the
// metric's bound. It exits non-zero when a gap exceeds the bound, or,
// with at least ten runs a side as the pipeline makes, a spread does:
// the quartiles of fewer runs are nearly their extremes, so their
// spread is printed but not judged.
func runAA(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := 0
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < o.aa; i++ {
			for side := range sets {
				seed := o.seed + int64(2*i+side)
				res, err := runChild(self, wl.name, seed, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.name, seed, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[side][name] = append(sets[side][name], m.Value)
				}
			}
		}
		fmt.Printf("%s, %d runs a side\n", wl.name, o.aa)
		fmt.Printf("  %-28s %14s %14s %8s %9s %9s %7s\n", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if d.Better == higher {
				gap = -gap
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			// The pipeline holds setup_s to its bound between the two
			// medians only, not within a set.
			judgeSpread := o.aa >= 10 && d.Name != "setup_s"
			if gap > d.Bound || (judgeSpread && (sa > d.Bound || sb > d.Bound)) {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("  %-28s %14.6g %14.6g %+7.2f%% %8.2f%% %8.2f%% %6.1f%% %s\n",
				d.Name, ma, mb, gap*100, sa*100, sb*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) outside their bound\n", bad)
		return 1
	}
	return 0
}

// runChild runs one workload in a process of its own and parses the
// result line.
func runChild(self, workload string, seed int64, o options) (result, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scale", o.scale)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// spread is the distance between the first and third quartile of xs as
// a share of their median, the quartiles placed as Python's
// statistics.quantiles(xs, n=4) places them.
func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m <= 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		// The exclusive method: position k(n+1)/4, counted from one.
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / m
}

// Fixture for the goroutinecapture analyzer.
package goroutinecapture

import "sync"

func fanOut(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup

	// wg.Add inside the spawned goroutine races wg.Wait.
	for j := range items {
		go func(j int) {
			wg.Add(1) // want `wg\.Add inside spawned goroutine`
			defer wg.Done()
			out[j] = j
		}(j)
	}

	// wg.Add before the go statement; capturing the per-iteration loop
	// variables is correct since Go 1.22.
	for i, v := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = v * 2
		}()
	}
	wg.Wait()
	return out
}

package main

import "testing"

// TestCheckRuns: a -runs value below one is an error rather than a
// default-sized campaign reported as zero runs.
func TestCheckRuns(t *testing.T) {
	for _, runs := range []int{1, 1000} {
		if err := checkRuns(runs); err != nil {
			t.Errorf("-runs %d rejected: %v", runs, err)
		}
	}
	for _, runs := range []int{0, -1} {
		if err := checkRuns(runs); err == nil {
			t.Errorf("-runs %d accepted", runs)
		}
	}
}

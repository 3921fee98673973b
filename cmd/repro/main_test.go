package main

import "testing"

// TestCheckSelection: every figure and table the command prints is
// accepted, and any other -fig or -table value is an error rather than a
// silent run that prints nothing. A -runs value below one is an error
// rather than a default-sized campaign reported as zero runs.
func TestCheckSelection(t *testing.T) {
	for _, fig := range []int{0, 2, 3, 4, 6, 7, 9} {
		if err := checkSelection(fig, 0, 1); err != nil {
			t.Errorf("-fig %d rejected: %v", fig, err)
		}
	}
	for _, table := range []int{1, 2, 3} {
		if err := checkSelection(0, table, 1); err != nil {
			t.Errorf("-table %d rejected: %v", table, err)
		}
	}
	for _, fig := range []int{-1, 1, 5, 8, 10} {
		if err := checkSelection(fig, 0, 1); err == nil {
			t.Errorf("-fig %d accepted", fig)
		}
	}
	for _, table := range []int{-1, 4, 7} {
		if err := checkSelection(0, table, 1); err == nil {
			t.Errorf("-table %d accepted", table)
		}
	}
	for _, runs := range []int{1, 200} {
		if err := checkSelection(0, 0, runs); err != nil {
			t.Errorf("-runs %d rejected: %v", runs, err)
		}
	}
	for _, runs := range []int{0, -1} {
		if err := checkSelection(0, 0, runs); err == nil {
			t.Errorf("-runs %d accepted", runs)
		}
	}
}

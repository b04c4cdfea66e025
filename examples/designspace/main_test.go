package main

import (
	"strings"
	"testing"
)

// goldenDesignspace is the example's whole output: the optimum and the
// feasible count at three budgets, then the Ultrix-like optimum.
const goldenDesignspace = `budget  125000 rbe ( 99875 feasible): best CPI 1.594
  256-entry 4-way TLB | I: 16-KB, 16-word, 4-way | D: 4-KB, 8-word, 4-way | 124978 rbes | CPI 1.594
budget  250000 rbe (195916 feasible): best CPI 1.485
  512-entry 2-way TLB | I: 32-KB, 16-word, 8-way | D: 8-KB, 8-word, 8-way | 247810 rbes | CPI 1.485
budget  500000 rbe (244358 feasible): best CPI 1.453
  512-entry 2-way TLB | I: 32-KB, 16-word, 8-way | D: 32-KB, 8-word, 8-way | 376978 rbes | CPI 1.453

same budget, single-API (Ultrix-like) performance model:
  256-entry 1-way TLB | I: 32-KB, 16-word, 8-way | D: 8-KB, 8-word, 8-way | 239427 rbes | CPI 1.394
`

func TestRunGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenDesignspace {
		t.Errorf("output drifted from golden:\ngot:\n%s\nwant:\n%s", b.String(), goldenDesignspace)
	}
}

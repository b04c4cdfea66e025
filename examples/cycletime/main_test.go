package main

import (
	"strings"
	"testing"
)

// goldenCycletime is the example's whole output: the optimum under each
// cycle-time ceiling, which the search imposes as a filter.
const goldenCycletime = `best allocation under 250,000 rbe at each cycle-time target
(0.8-micron-class access times; Mach-like workload model)

cycle      clock      TLB                    I-cache                D-cache                CPI
none       -          512-entry 2-way TLB    32-KB, 16-word, 8-way  8-KB, 8-word, 8-way    1.485
18 ns      56 MHz     512-entry 2-way TLB    32-KB, 16-word, 4-way  8-KB, 8-word, 8-way    1.493
14 ns      71 MHz     512-entry 2-way TLB    32-KB, 16-word, 2-way  8-KB, 4-word, 8-way    1.507
12 ns      83 MHz     512-entry 2-way TLB    32-KB, 8-word, 2-way   8-KB, 8-word, 4-way    1.527
10 ns      100 MHz    512-entry 2-way TLB    32-KB, 16-word, 1-way  8-KB, 8-word, 2-way    1.566
9 ns       111 MHz    512-entry 2-way TLB    32-KB, 16-word, 1-way  8-KB, 8-word, 1-way    1.589

the CPI column prices the clock: pushing from 14 ns to 9 ns costs CPI as the
optimizer abandons associativity and capacity -- whether the faster clock wins
depends on cycle-time x CPI, which is exactly the product a designer minimizes
`

func TestRunGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenCycletime {
		t.Errorf("output drifted from golden:\ngot:\n%s\nwant:\n%s", b.String(), goldenCycletime)
	}
}

package core_test

import (
	"fmt"

	"repro/internal/core"
)

// The adaptive page-in record keeps the pages flushed while their owner
// was stopped as a bitmap (paper Figure 4 lists them as runs): an eviction
// adds a bitmap word's worth of pages at a time.
func ExamplePageRecord() {
	var rec core.PageRecord
	rec.Add(1, 0xf<<36) // vpages 100-103
	rec.Add(7, 3<<52)   // vpages 500 and 501
	rec.Add(0, 1<<9)    // vpage 9
	fmt.Println("pages recorded:", rec.Len())
	fmt.Println("101 and 104 recorded:", rec.Has(101), rec.Has(104))
	// Output:
	// pages recorded: 7
	// 101 and 104 recorded: true false
}

// Policy combinations follow the paper's slash notation.
func ExampleParseFeatures() {
	f, _ := core.ParseFeatures("so/ao/bg")
	fmt.Println(f.Selective, f.Aggressive, f.AdaptiveIn, f.BGWrite)
	fmt.Println(f)
	// Output:
	// true true false true
	// so/ao/bg
}

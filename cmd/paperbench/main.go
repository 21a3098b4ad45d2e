// Command paperbench regenerates the tables and figures of the MaxRank
// paper's evaluation (Section 8). Each experiment prints the series the
// paper plots; EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	paperbench                       # all experiments, default scale
//	paperbench -exp fig8,fig11       # a subset
//	paperbench -scale quick          # seconds-level smoke run
//	paperbench -scale paper -q 40    # the paper's own parameters (slow!)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

var experiments = []struct {
	name string
	desc string
	run  func(exp.Config) error
}{
	{"fig8", "effect of cardinality n (AA vs BA; IND/COR/ANTI; k*, |T|)", exp.Fig8},
	{"fig9", "effect of dimensionality d + Table 3 (k*, |T|)", exp.Fig9Table3},
	{"table4", "real-dataset proxies", exp.Table4},
	{"fig10", "iMaxRank: effect of tau", exp.Fig10},
	{"fig11", "FCA vs AA in the special case d=2", exp.Fig11},
	{"fig12", "appendix: score-ratio collapse with d", exp.Fig12},
}

func main() {
	var (
		which    = flag.String("exp", "all", "comma-separated experiments: fig8,fig9,table4,fig10,fig11,fig12 or all")
		scale    = flag.String("scale", "default", "quick, default or paper")
		queries  = flag.Int("q", 0, "focal records per measurement (0 = scale default)")
		seed     = flag.Int64("seed", 0, "base seed (0 = fixed default)")
		parallel = flag.Int("parallel", 1, "engine worker pool per measurement (>1 trades CPU-time fidelity for wall-clock speed)")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}
	if *supplement {
		runSupplement()
		return
	}
	if *table4one != "" {
		runTable4One(*table4one)
		return
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*which, ",") {
		want[strings.TrimSpace(name)] = true
	}
	cfg := exp.Config{
		Scale:    exp.Scale(*scale),
		Queries:  *queries,
		Seed:     *seed,
		Out:      os.Stdout,
		Parallel: *parallel,
	}
	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		ran++
		t0 := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "paperbench: no experiment matches %q (try -list)\n", *which)
		os.Exit(1)
	}
	fmt.Printf("\nall done in %v\n", time.Since(start).Round(time.Millisecond))
}

// Command maxrank answers MaxRank / iMaxRank queries over a CSV dataset
// and manages persistent index snapshots.
//
// Usage:
//
//	maxrank -data hotels.csv -focal 17                  # record #17
//	maxrank -data hotels.csv -point 0.5,0.5,0.3,0.9     # what-if record
//	maxrank -data hotels.csv -focal 17 -tau 2 -alg aa -ids
//	maxrank -data hotels.csv -batch 3,17,42 -parallel 4 # batch on a pool
//	maxrank -data hotels.csv -focal 17 -timeout 5s      # bounded latency
//
// Each query runs on one goroutine; -parallel spreads a batch's queries
// across cores.
//
// Snapshot subcommands (see docs/SNAPSHOTS.md):
//
//	maxrank build-snapshot -data hotels.csv -out hotels.snap
//	maxrank build-snapshot -gen ANTI -n 100000 -dim 4 -out anti.snap
//	maxrank migrate-snapshot -in legacy.snap -out hotels.snap       # v1 or float32 -> float64 v2
//	maxrank inspect-snapshot hotels.snap
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/dataset"
)

func main() {
	// Subcommand dispatch: the snapshot verbs get their own flag sets; a
	// first argument starting with '-' (or none) keeps the classic
	// query-CLI behaviour. Any other bare first argument is a mistyped
	// verb — rejecting it here beats flag.Parse silently ignoring
	// everything after it and complaining about unrelated flags.
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "build-snapshot":
			buildSnapshotCmd(os.Args[2:])
		case "migrate-snapshot":
			migrateSnapshotCmd(os.Args[2:])
		case "inspect-snapshot":
			inspectSnapshotCmd(os.Args[2:])
		default:
			fatal(fmt.Errorf("unknown command %q (commands: build-snapshot, migrate-snapshot, inspect-snapshot)", os.Args[1]))
		}
		return
	}
	var (
		dataPath  = flag.String("data", "", "CSV dataset path (required)")
		focal     = flag.Int("focal", -1, "focal record index")
		pointSpec = flag.String("point", "", "what-if focal record: comma-separated attributes")
		batchSpec = flag.String("batch", "", "batch of focal record indexes: comma-separated, or 'all'")
		tau       = flag.Int("tau", 0, "iMaxRank slack τ (0 = plain MaxRank)")
		algName   = flag.String("alg", "auto", "algorithm: auto, fca, ba, aa")
		normalize = flag.Bool("normalize", false, "min-max normalise attributes to [0,1]")
		showIDs   = flag.Bool("ids", false, "report the records outranking the focal per region")
		maxShow   = flag.Int("regions", 10, "max regions to print")
		parallel  = flag.Int("parallel", 0, "batch worker pool size (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-invocation deadline (0 = none)")
	)
	flag.Parse()
	if *dataPath == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	modes := 0
	for _, set := range []bool{*focal >= 0, *pointSpec != "", *batchSpec != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fatal(fmt.Errorf("specify exactly one of -focal, -point or -batch"))
	}

	rows, err := dataset.ReadCSVFile(*dataPath, *normalize)
	if err != nil {
		fatal(err)
	}
	ds, err := repro.NewDataset(rows)
	if err != nil {
		fatal(err)
	}

	alg, err := repro.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	opts := []repro.Option{repro.WithAlgorithm(alg), repro.WithTau(*tau), repro.WithOutrankIDs(*showIDs)}

	eng, err := repro.NewEngine(ds, repro.WithParallelism(*parallel))
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fmt.Printf("dataset: %d records, %d attributes\n", ds.Len(), ds.Dim())
	if *batchSpec != "" {
		runBatch(ctx, eng, *batchSpec, opts, *showIDs)
		return
	}

	var res *repro.Result
	if *focal >= 0 {
		res, err = eng.Query(ctx, *focal, opts...)
	} else {
		var pt []float64
		for _, fld := range strings.Split(*pointSpec, ",") {
			v, perr := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if perr != nil {
				fatal(perr)
			}
			pt = append(pt, v)
		}
		res, err = eng.QueryPoint(ctx, pt, opts...)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("k* = %d  (dominators: %d, regions: %d)\n", res.KStar, res.Dominators, len(res.Regions))
	fmt.Printf("cost: cpu=%v io=%d pages, accessed=%d records, algorithm=%v\n",
		res.Stats.CPUTime, res.Stats.IO, res.Stats.IncomparableAccessed, res.Stats.Algorithm)
	for i, reg := range res.Regions {
		if i >= *maxShow {
			fmt.Printf("... and %d more regions\n", len(res.Regions)-i)
			break
		}
		fmt.Printf("region %d: rank %d, preference %s\n", i+1, reg.Rank, fmtVec(reg.QueryVector))
		if *showIDs {
			fmt.Printf("          outranked by records %v\n", reg.OutrankIDs)
		}
	}
}

// runBatch executes a comma-separated (or "all") focal list on the engine's
// worker pool and prints one summary line per record (plus, with -ids, the
// records outranking the focal in its best region).
func runBatch(ctx context.Context, eng *repro.Engine, spec string, opts []repro.Option, showIDs bool) {
	var ids []int
	if spec == "all" {
		for i := 0; i < eng.Dataset().Len(); i++ {
			ids = append(ids, i)
		}
	} else {
		for _, fld := range strings.Split(spec, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(fld))
			if err != nil {
				fatal(err)
			}
			ids = append(ids, v)
		}
	}
	start := time.Now()
	results, err := eng.QueryBatch(ctx, ids, opts...)
	if err != nil {
		fatal(err)
	}
	workers := eng.Parallelism()
	if workers > len(ids) {
		workers = len(ids)
	}
	for i, res := range results {
		fmt.Printf("focal %6d: k* = %-6d regions = %-5d io = %-6d cpu = %v\n",
			ids[i], res.KStar, len(res.Regions), res.Stats.IO, res.Stats.CPUTime)
		if showIDs && len(res.Regions) > 0 {
			fmt.Printf("              outranked in best region by %v\n", res.Regions[0].OutrankIDs)
		}
	}
	fmt.Printf("batch: %d queries on %d worker(s) in %v\n",
		len(ids), workers, time.Since(start).Round(time.Millisecond))
}

func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maxrank:", err)
	os.Exit(1)
}

package main

// The -supplement flag runs a compact, time-bounded set of measurements
// used by EXPERIMENTS.md where the full default-scale sweeps would take
// hours on one core: the d sweep at n = 2,000 and the AA-vs-BA comparison
// at n = 1,000..10,000.

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/dataset"
)

var supplement = flag.Bool("supplement", false, "run the compact supplement measurements used by EXPERIMENTS.md")

var table4one = flag.String("table4one", "", "run one real-proxy dataset (HOTEL/HOUSE/NBA/PITCH/BAT) at quick scale and print one row")

func runTable4One(name string) {
	rp, err := dataset.RealProxyByName(name, 0.004)
	if err != nil {
		fatalErr(err)
	}
	pts := rp.Generate(20150831)
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	ds, err := repro.NewDataset(rows)
	if err != nil {
		fatalErr(err)
	}
	res, err := newEngine(ds).Query(context.Background(), 13, repro.WithAlgorithm(repro.AA))
	if err != nil {
		fatalErr(err)
	}
	fmt.Printf("%s d=%d n=%d k*=%d |T|=%d cpu=%.2fs io=%d\n",
		name, rp.Dim, len(pts), res.KStar, len(res.Regions),
		res.Stats.CPUTime.Seconds(), res.Stats.IO)
}

func runSupplement() {
	fmt.Println("=== Supplement A: dimensionality sweep (IND, n=2000, q=2) ===")
	fmt.Println("d  AA CPU      AA I/O  k*      |T|")
	for _, d := range []int{2, 3, 4, 5} {
		ds, err := repro.GenerateDataset("IND", 2000, d, 20150831)
		if err != nil {
			fatalErr(err)
		}
		eng := newEngine(ds)
		var cpu float64
		var io, kstar, regions float64
		const q = 2
		for i := 0; i < q; i++ {
			focal := (i*977 + 13) % ds.Len()
			res, err := eng.Query(context.Background(), focal, repro.WithAlgorithm(repro.AA))
			if err != nil {
				fatalErr(err)
			}
			cpu += res.Stats.CPUTime.Seconds()
			io += float64(res.Stats.IO)
			kstar += float64(res.KStar)
			regions += float64(len(res.Regions))
		}
		fmt.Printf("%d  %8.3fs  %6.1f  %6.1f  %6.1f\n", d, cpu/q, io/q, kstar/q, regions/q)
	}

	fmt.Println()
	fmt.Println("=== Supplement B: AA vs BA (IND d=4, q=2) ===")
	fmt.Println("n      AA CPU      AA I/O  BA CPU      BA I/O")
	for _, n := range []int{1000, 2000, 5000, 10000} {
		ds, err := repro.GenerateDataset("IND", n, 4, 20150831)
		if err != nil {
			fatalErr(err)
		}
		eng := newEngine(ds)
		const q = 2
		var aaCPU, aaIO, baCPU, baIO float64
		for i := 0; i < q; i++ {
			focal := (i*977 + 13) % ds.Len()
			res, err := eng.Query(context.Background(), focal, repro.WithAlgorithm(repro.AA))
			if err != nil {
				fatalErr(err)
			}
			aaCPU += res.Stats.CPUTime.Seconds()
			aaIO += float64(res.Stats.IO)
			if n <= 1000 {
				res, err = eng.Query(context.Background(), focal, repro.WithAlgorithm(repro.BA))
				if err != nil {
					fatalErr(err)
				}
				baCPU += res.Stats.CPUTime.Seconds()
				baIO += float64(res.Stats.IO)
			}
		}
		if n <= 1000 {
			fmt.Printf("%-6d %8.3fs  %6.1f  %8.3fs  %6.1f\n", n, aaCPU/q, aaIO/q, baCPU/q, baIO/q)
		} else {
			fmt.Printf("%-6d %8.3fs  %6.1f  %8s  %6s\n", n, aaCPU/q, aaIO/q, "-", "-")
		}
	}
}

func newEngine(ds *repro.Dataset) *repro.Engine {
	eng, err := repro.NewEngine(ds)
	if err != nil {
		fatalErr(err)
	}
	return eng
}

func fatalErr(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}

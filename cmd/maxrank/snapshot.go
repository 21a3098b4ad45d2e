package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/dataset"
	"repro/internal/quadtree"
	"repro/internal/snapshot"
)

// buildSnapshotCmd implements `maxrank build-snapshot`: index a dataset
// once and persist it so daemons can cold-start in O(read).
func buildSnapshotCmd(args []string) {
	fs := flag.NewFlagSet("build-snapshot", flag.ExitOnError)
	var (
		dataPath    = fs.String("data", "", "CSV dataset path (alternative to -gen)")
		gen         = fs.String("gen", "", "generate a synthetic dataset: IND, COR or ANTI")
		n           = fs.Int("n", 10000, "synthetic dataset cardinality (with -gen)")
		dim         = fs.Int("dim", 3, "synthetic dataset dimensionality (with -gen)")
		seed        = fs.Int64("seed", 1, "synthetic dataset seed (with -gen)")
		normalize   = fs.Bool("normalize", false, "min-max normalise attributes to [0,1]")
		pageSize    = fs.Int("page-size", 0, "simulated page size in bytes (0 = 4096)")
		quadPartial = fs.Int("quad-partial", 0, "default quad-tree leaf split threshold (0 = library default)")
		quadDepth   = fs.Int("quad-depth", 0, "default quad-tree depth cap (0 = dimension default)")
		out         = fs.String("out", "", "output snapshot path (required)")
	)
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("build-snapshot: -out is required"))
	}
	if (*dataPath == "") == (*gen == "") {
		fatal(fmt.Errorf("build-snapshot: specify exactly one of -data and -gen"))
	}
	var dsOpts []repro.DatasetOption
	if *pageSize > 0 {
		dsOpts = append(dsOpts, repro.WithPageSize(*pageSize))
	}
	if *quadPartial != 0 || *quadDepth != 0 {
		dsOpts = append(dsOpts, repro.WithQuadDefaults(*quadPartial, *quadDepth))
	}

	var (
		ds  *repro.Dataset
		err error
	)
	if *dataPath != "" {
		var rows [][]float64
		if rows, err = dataset.ReadCSVFile(*dataPath, *normalize); err == nil {
			ds, err = repro.NewDataset(rows, dsOpts...)
		}
	} else {
		ds, err = repro.GenerateDataset(*gen, *n, *dim, *seed, dsOpts...)
	}
	if err != nil {
		fatal(err)
	}

	// WriteSnapshotFile is atomic (temp file + rename, 0644), so a crash
	// mid-write never leaves a half-snapshot under the target name.
	if err := ds.WriteSnapshotFile(*out); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (format v%d): %d records, %d attributes, fingerprint %s, %d bytes\n",
		*out, snapshot.Version2, ds.Len(), ds.Dim(), ds.Fingerprint(), info.Size())
}

// migrateSnapshotCmd implements `maxrank migrate-snapshot`: load a
// snapshot of any readable kind — a legacy v1 stream, a float32 v2 file —
// and write it back as what every snapshot now is, float64 v2, so maxrankd
// can serve it zero-copy. It is "load, then write": the dataset
// fingerprint and query answers are preserved bit-for-bit.
func migrateSnapshotCmd(args []string) {
	fs := flag.NewFlagSet("migrate-snapshot", flag.ExitOnError)
	var (
		in  = fs.String("in", "", "input snapshot path (required)")
		out = fs.String("out", "", "output snapshot path (required)")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("migrate-snapshot: -in and -out are required"))
	}
	// Heap load: every checksum and the fingerprint are verified before
	// anything is re-encoded.
	ds, err := repro.LoadSnapshotFile(*in, repro.WithMmap(false))
	if err != nil {
		fatal(fmt.Errorf("migrate-snapshot: %s: %w", *in, err))
	}
	inInfo, err := os.Stat(*in)
	if err != nil {
		fatal(err)
	}
	if err := ds.WriteSnapshotFile(*out); err != nil {
		fatal(fmt.Errorf("migrate-snapshot: %s: %w", *out, err))
	}
	outInfo, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("migrated %s (v%d, %d bytes) -> %s (v%d, %d bytes)\n",
		*in, ds.Storage().SnapshotVersion, inInfo.Size(), *out, snapshot.Version2, outInfo.Size())
	fmt.Printf("fingerprint:     %s (preserved)\n", ds.Fingerprint())
}

// inspectSnapshotCmd implements `maxrank inspect-snapshot`: decode and
// verify a snapshot (magic, version, checksum) and print its metadata
// without building anything.
func inspectSnapshotCmd(args []string) {
	fs := flag.NewFlagSet("inspect-snapshot", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("inspect-snapshot: usage: maxrank inspect-snapshot <file.snap>"))
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	snap, err := snapshot.Read(f)
	if err != nil {
		fatal(fmt.Errorf("inspect-snapshot: %s: %w", path, err))
	}
	var pageBytes int
	for _, p := range snap.Pages {
		pageBytes += len(p.Data)
	}
	info, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	encoding, serving := "float64", "heap load (legacy stream, converted on the way in; migrate-snapshot rewrites it as v2)"
	if snap.Float32 {
		encoding = "float32"
	}
	if snap.FormatVersion == snapshot.Version2 {
		serving = "zero-copy mmap (flat layout)"
	}
	fmt.Printf("snapshot:        %s (%d bytes)\n", path, info.Size())
	fmt.Printf("format version:  %d\n", snap.FormatVersion)
	fmt.Printf("point encoding:  %s\n", encoding)
	fmt.Printf("serving mode:    %s\n", serving)
	fmt.Printf("fingerprint:     %s\n", snap.Fingerprint)
	fmt.Printf("records:         %d\n", snap.Count)
	fmt.Printf("dimensionality:  %d\n", snap.Dim)
	fmt.Printf("page size:       %d bytes\n", snap.PageSize)
	fmt.Printf("r*-tree:         root page %d, height %d, %d pages (%d bytes used)\n",
		snap.Root, snap.Height, len(snap.Pages), pageBytes)
	mp := snap.QuadMaxPartial
	if mp == 0 {
		mp = quadtree.DefaultMaxPartial
	}
	md := snap.QuadMaxDepth
	if md == 0 {
		md = quadtree.DefaultMaxDepth(snap.Dim - 1)
	}
	fmt.Printf("quad-tree:       max-partial %d, max-depth %d (stored %d/%d; 0 = default)\n",
		mp, md, snap.QuadMaxPartial, snap.QuadMaxDepth)
	fmt.Printf("checksum:        ok\n")
}

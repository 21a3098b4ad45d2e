// Command bench is the repository's benchmark: four workloads over the
// MaxRank engine, its HTTP server and its mutation path, each reporting
// end-to-end metrics untraced and per-layer metrics in a separate traced run,
// and each checking every answer it receives. BENCHMARK.json at the
// repository root names the workloads, metrics, units and regression bounds;
// bench/README.md explains them.
//
//	go run ./bench                                  all four workloads, seed 1
//	go run ./bench -workload heavy_d4 -seed 3       one run; last line is JSON
//	go run ./bench -trace 1                         per-layer metrics + bench/out/trace.<workload>.json
//	go run ./bench -runs 10 -out a.json             a result set for -compare
//	go run ./bench -compare a.json b.json           apply the bounds to two sets
//	go run ./bench -quick                           smoke test, a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload once and end with one JSON line (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: which focals, requests and mutations the run issues")
	seconds := fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans around every layer call and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "smoke test: cheap inputs and a short window")
	runs := fs.Int("runs", 1, "runs per workload, at seeds seed, seed+1, ...")
	outPath := fs.String("out", filepath.Join("bench", "out", "results.json"), "where to write the results of a multi-workload run")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	updatePools := fs.Bool("update-testdata", false, "rebuild the focal pools under bench/testdata, all or -workload's (minutes)")
	updateDig := fs.Bool("update-digests", false, "rerun every workload at the committed seeds and rewrite digests.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	outDir := filepath.Join("bench", "out")
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), os.Stdout)
	case *updatePools:
		return updateTestdata(*workload, outDir)
	case *updateDig:
		return updateDigests(sp, outDir)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
		if *quick {
			*seconds = 1
		}
	}
	base := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, OutDir: outDir}

	if *workload != "" {
		base.Workload = *workload
		out, err := runWorkload(base)
		if err != nil {
			return err
		}
		line, err := report(os.Stdout, sp, base, out)
		if err != nil {
			return err
		}
		fmt.Println(line)
		if out.Failed > 0 {
			return fmt.Errorf("%d of %d output checks failed", out.Failed, out.Attempted)
		}
		return nil
	}

	results := resultFile{Env: environment(), Traced: base.Trace, Quick: base.Quick, Seconds: base.Seconds}
	failed := 0
	for _, name := range sp.workloadNames() {
		for r := 0; r < *runs; r++ {
			cfg := base
			cfg.Workload, cfg.Seed = name, base.Seed+int64(r)
			out, err := runWorkload(cfg)
			if err != nil {
				return err
			}
			if _, err := report(os.Stdout, sp, cfg, out); err != nil {
				return err
			}
			failed += out.Failed
			results.add(sp, cfg, out)
		}
	}
	if err := results.write(*outPath); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", *outPath)
	if failed > 0 {
		return fmt.Errorf("%d output checks failed", failed)
	}
	return nil
}

// driverMetric is one metric of a run's closing JSON line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric the mode owes, by name, with unit and sample
// count, and returns the run's closing JSON line. A metric BENCHMARK.json
// does not list, or an end-to-end metric the run did not produce, is an
// error: the file and the harness must not drift apart. A per-layer metric
// the workload has no business with reads 0.
func report(w *os.File, sp *spec, cfg runConfig, out *outcome) (string, error) {
	want := sp.metrics(cfg.Trace)
	known := map[string]bool{}
	for _, m := range want {
		known[m.Name] = true
	}
	for name := range out.Metrics {
		if !known[name] {
			return "", fmt.Errorf("%s reports %q, which BENCHMARK.json does not list for this mode", cfg.Workload, name)
		}
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%t wall=%.1fs digest=%s attempted=%d failed=%d failed_share=%.4f\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, out.WallS, out.Digest, out.Attempted, out.Failed,
		float64(out.Failed)/float64(max(out.Attempted, 1)))
	for _, f := range out.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, n := range out.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	metrics := map[string]driverMetric{}
	for _, m := range want {
		s, ok := out.Metrics[m.Name]
		if !ok && !cfg.Trace {
			return "", fmt.Errorf("%s did not report end-to-end metric %q", cfg.Workload, m.Name)
		}
		fmt.Fprintf(w, "   %-32s %14.4f %-6s n=%d\n", m.Name, s.Value, m.Unit, s.N)
		metrics[m.Name] = driverMetric{Value: s.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, metrics})
	return string(line), err
}

// env records where a result file was measured.
type env struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

func environment() env {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// runResult is one run in a result file.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	WallS     float64            `json:"wall_s"`
	Digest    string             `json:"answers_digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
}

// resultFile is what a multi-workload run writes and -compare reads.
type resultFile struct {
	Env     env         `json:"env"`
	Traced  bool        `json:"traced"`
	Quick   bool        `json:"quick"`
	Seconds float64     `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

func (f *resultFile) add(sp *spec, cfg runConfig, out *outcome) {
	r := runResult{Workload: cfg.Workload, Seed: cfg.Seed, WallS: out.WallS, Digest: out.Digest,
		Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]float64{}, Samples: map[string]int{}}
	for _, m := range sp.metrics(cfg.Trace) {
		r.Metrics[m.Name] = out.Metrics[m.Name].Value
		r.Samples[m.Name] = out.Metrics[m.Name].N
	}
	f.Runs = append(f.Runs, r)
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

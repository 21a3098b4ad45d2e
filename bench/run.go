package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // how long the measured window lasts
	Trace    bool    // record spans and report per-layer metrics
	Quick    bool    // smoke-test sizes: cheap inputs, one set-up
	OutDir   string  // scratch files and trace files; inside the checkout

	Relabel bool // -update-digests: the committed digest is being replaced, not checked
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// minOps is how many operations a window measures at least, however slow
// the machine: 100 samples put ten beyond the p90.
const minOps = 100

// sample is one reported number with the count of observations behind it.
type sample struct {
	Value float64
	N     int
}

// outcome is what one run produced.
type outcome struct {
	Metrics   map[string]sample
	Attempted int
	Failed    int
	Failures  []string // the first few failed checks, for the log
	Digest    string   // hash of the run's deterministic answers
	WallS     float64  // the whole run, set-up and checks included
	Notes     []string
}

// checker counts attempted operations and failed output checks, and hashes
// the answers of the run's deterministic part into the answers digest.
type checker struct {
	attempted int
	failed    int
	failures  []string
	digest    [sha256.Size]byte
}

func (c *checker) failf(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// answer folds one answer into the digest: the operation's identity, k*,
// region count and page reads — what must not move under any optimisation.
// The digest chains (hash of previous digest plus line), so order counts.
func (c *checker) answer(id string, kstar, regions int, io int64) {
	line := fmt.Sprintf("%x|%s|%d|%d|%d", c.digest, id, kstar, regions, io)
	c.digest = sha256.Sum256([]byte(line))
}

func (c *checker) digestHex() string { return hex.EncodeToString(c.digest[:8]) }

// validate runs repro.Validate on an in-dataset answer.
func (c *checker) validate(ds *repro.Dataset, focal int, res *repro.Result) {
	if err := repro.Validate(ds, focal, res); err != nil {
		c.failf("focal %d: %v", focal, err)
	}
}

// finish moves the counts into the outcome and compares the digest with the
// committed one for this workload and seed, when there is one.
func (c *checker) finish(cfg runConfig, out *outcome) {
	out.Digest = c.digestHex()
	if want, ok := committedDigest(cfg); ok && want != out.Digest {
		c.failf("answers_digest %s, committed %s", out.Digest, want)
	}
	out.Attempted, out.Failed, out.Failures = c.attempted, c.failed, c.failures
}

// digestKey names a digest: quick runs issue other operations than full
// runs, so each mode has its own.
func digestKey(cfg runConfig) string {
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	return fmt.Sprintf("%s/%s/seed%d", cfg.Workload, mode, cfg.Seed)
}

// committedDigest looks the run's digest up in testdata/digests.json. Traced
// runs interleave other work and are not compared.
func committedDigest(cfg runConfig) (string, bool) {
	if cfg.Trace || cfg.Relabel {
		return "", false
	}
	data, err := testdata.ReadFile("testdata/digests.json")
	if err != nil {
		return "", false
	}
	var all map[string]string
	if json.Unmarshal(data, &all) != nil {
		return "", false
	}
	d, ok := all[digestKey(cfg)]
	return d, ok
}

// medianSetup runs setup reps times, tearing down all but the last, and
// returns the median duration in seconds.
func medianSetup(reps int, setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs), nil
}

// setupReps is 1 where setup_s is not reported or not compared.
func (cfg runConfig) setupReps() int {
	if cfg.Quick || cfg.Trace {
		return 1
	}
	return setupReps
}

// scratchDir creates a private directory under the run's output directory.
func (cfg runConfig) scratchDir() (string, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.OutDir, "tmp-"+cfg.Workload+"-")
}

// memWindow measures heap allocation between start and stop.
type memWindow struct{ before, after runtime.MemStats }

func (m *memWindow) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
}
func (m *memWindow) stop()             { runtime.ReadMemStats(&m.after) }
func (m *memWindow) mallocs() float64  { return float64(m.after.Mallocs - m.before.Mallocs) }
func (m *memWindow) allocKiB() float64 { return float64(m.after.TotalAlloc-m.before.TotalAlloc) / 1024 }

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// runWorkload dispatches one run and stamps its wall time.
func runWorkload(cfg runConfig) (*outcome, error) {
	// Start every run from a collected heap, so that a run does not inherit
	// the previous one's garbage when several share a process.
	debug.FreeOSMemory()
	t := time.Now()
	var out *outcome
	var err error
	switch cfg.Workload {
	case "heavy_d4", "wide_d2":
		out, err = runEngine(cfg)
	case "serve_mix":
		out, err = runServe(cfg)
	case "mutate_cycle":
		out, err = runMutate(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	out.WallS = time.Since(t).Seconds()
	return out, nil
}

// per divides, returning 0 for an empty denominator: a per-layer metric of
// a layer the workload never enters reads 0.
func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// removeAll deletes a scratch directory, if one was made.
func removeAll(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}

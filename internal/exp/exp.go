// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 8) on top of the public API.
// Each experiment prints the same rows/series the paper reports; absolute
// numbers differ (different hardware, Go vs C++, simulated pager) but the
// shapes — who wins, by what factor, where the trends cross — reproduce.
package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro"
)

// Scale selects experiment sizes.
type Scale string

const (
	// ScaleQuick: seconds-level smoke runs (used by `go test -bench`).
	ScaleQuick Scale = "quick"
	// ScaleDefault: minutes-level runs with the trends clearly visible.
	ScaleDefault Scale = "default"
	// ScalePaper: the paper's own parameter ranges (hours on one core).
	ScalePaper Scale = "paper"
)

// Config drives an experiment run.
type Config struct {
	Scale   Scale
	Queries int   // focal records averaged per measurement point
	Seed    int64 // base RNG seed
	Out     io.Writer
	// Parallel runs each measurement's queries on an engine worker pool of
	// this size (<= 1 keeps the sequential, paper-faithful timing; larger
	// values trade per-query CPU fidelity for wall-clock speed).
	Parallel int
}

func (c *Config) defaults() {
	if c.Queries <= 0 {
		switch c.Scale {
		case ScaleQuick:
			c.Queries = 2
		case ScalePaper:
			c.Queries = 40 // the paper averages over 40 queries
		default:
			c.Queries = 3
		}
	}
	if c.Seed == 0 {
		c.Seed = 20150831 // VLDB 2015 conference start date
	}
	if c.Scale == "" {
		c.Scale = ScaleDefault
	}
}

// Metrics aggregates per-query measurements.
type Metrics struct {
	CPU     time.Duration // mean CPU time per query
	IO      float64       // mean page accesses
	KStar   float64       // mean k*
	Regions float64       // mean |T|
	NA      float64       // mean incomparable records accessed
}

// runQueries executes MaxRank for Queries random focal records through a
// query engine and averages the measurements. Per-query I/O is attributed
// by the engine itself, so the counters stay exact even on a parallel pool.
func runQueries(ds *repro.Dataset, cfg *Config, opts ...repro.Option) (Metrics, error) {
	rng := rand.New(rand.NewSource(cfg.Seed * 7656287))
	idxs := make([]int, cfg.Queries)
	for q := range idxs {
		idxs[q] = rng.Intn(ds.Len())
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	eng, err := repro.NewEngine(ds, repro.WithParallelism(parallel))
	if err != nil {
		return Metrics{}, err
	}
	results, err := eng.QueryBatch(context.Background(), idxs, opts...)
	if err != nil {
		return Metrics{}, fmt.Errorf("batch over %d focals: %w", len(idxs), err)
	}
	var m Metrics
	for _, res := range results {
		m.CPU += res.Stats.CPUTime
		m.IO += float64(res.Stats.IO)
		m.KStar += float64(res.KStar)
		m.Regions += float64(len(res.Regions))
		m.NA += float64(res.Stats.IncomparableAccessed)
	}
	n := float64(cfg.Queries)
	m.CPU = time.Duration(float64(m.CPU) / n)
	m.IO /= n
	m.KStar /= n
	m.Regions /= n
	m.NA /= n
	return m, nil
}

// table is a small fixed-width printer.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer, header ...string) *table {
	t := &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, h)
	}
	fmt.Fprintln(t.w)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.w, "%.1f", v)
		case time.Duration:
			fmt.Fprintf(t.w, "%.3fs", v.Seconds())
		default:
			fmt.Fprintf(t.w, "%v", c)
		}
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func header(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}

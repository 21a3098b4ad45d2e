// Command maxrankd serves MaxRank / iMaxRank queries over HTTP.
//
// It serves one dataset built at startup (-data CSV or -gen synthetic) or
// a whole directory of index snapshots (-data-dir: every *.snap file,
// named after its basename), each behind a long-lived engine with an
// optional deduplicating LRU result cache. Snapshots load in O(read) —
// no index construction — and more can be attached at runtime through
// POST /v1/datasets. Served datasets are mutable at runtime through
// POST /v1/datasets/{name}/mutate (point inserts/deletes, versioned
// atomic swap); with -resnapshot each mutated dataset is written back to
// its .snap in -data-dir so restarts resume from the mutated state. See
// docs/OPERATIONS.md for the endpoint reference and docs/SNAPSHOTS.md
// for the snapshot workflow.
//
// Usage:
//
//	maxrankd -data hotels.csv -addr :8080 -cache 4096
//	maxrankd -gen IND -n 10000 -dim 3 -seed 1          # synthetic dataset
//	maxrankd -data-dir /var/lib/maxrank                # every *.snap inside
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately and in-flight requests get a drain window to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/wal"
	"repro/server"
)

// config carries the parsed flags; keeping it a plain struct makes the
// validation rules testable without running main.
type config struct {
	dataPath    string
	gen         string
	dataDir     string
	n, dim      int
	seed        int64
	normalize   bool
	cacheCap    int
	parallel    int
	resnapshot  bool
	pageLatency time.Duration
	noMmap      bool

	wal             bool
	walSync         string
	walSyncInterval time.Duration
}

// validate enforces the dataset-source rules up front so a misconfigured
// daemon fails with a clear message (and usage) instead of a confusing
// late error: exactly one of -data, -gen and -data-dir must be chosen.
func (c *config) validate() error {
	set := 0
	for _, s := range []bool{c.dataPath != "", c.gen != "", c.dataDir != ""} {
		if s {
			set++
		}
	}
	switch {
	case set == 0:
		return fmt.Errorf("no dataset source: specify exactly one of -data, -gen or -data-dir")
	case set > 1:
		return fmt.Errorf("conflicting dataset sources: specify exactly one of -data, -gen or -data-dir")
	}
	if c.gen != "" && (c.n <= 0 || c.dim < 2) {
		return fmt.Errorf("-gen needs -n >= 1 and -dim >= 2 (got n=%d dim=%d)", c.n, c.dim)
	}
	if c.resnapshot && c.dataDir == "" {
		return fmt.Errorf("-resnapshot needs -data-dir (it rewrites <data-dir>/<name>.snap after mutations)")
	}
	if c.wal {
		if c.dataDir == "" {
			return fmt.Errorf("-wal needs -data-dir (it writes <data-dir>/<name>.wal next to each snapshot)")
		}
		if _, err := wal.ParseSyncPolicy(c.walSync); err != nil {
			return fmt.Errorf("-wal-sync: %w", err)
		}
		if c.walSync == "interval" && c.walSyncInterval <= 0 {
			return fmt.Errorf("-wal-sync interval needs -wal-sync-interval > 0 (got %v)", c.walSyncInterval)
		}
	}
	return nil
}

// walPolicy returns the validated sync policy (call after validate).
func (c *config) walPolicy() wal.SyncPolicy {
	p, _ := wal.ParseSyncPolicy(c.walSync)
	return p
}

// engineOptions are the options every engine in this process shares.
func (c *config) engineOptions() []repro.EngineOption {
	return []repro.EngineOption{
		repro.WithParallelism(c.parallel),
		repro.WithCache(c.cacheCap),
	}
}

// datasetOptions are the options every dataset in this process shares.
func (c *config) datasetOptions() []repro.DatasetOption {
	var opts []repro.DatasetOption
	if c.pageLatency > 0 {
		opts = append(opts, repro.WithPageLatency(c.pageLatency))
	}
	if c.noMmap {
		opts = append(opts, repro.WithMmap(false))
	}
	return opts
}

// loadSnapshotEngine builds one serving engine from a snapshot file.
// Format-v2 snapshots are memory-mapped and served zero-copy (unless
// -mmap=false); v1 snapshots decode onto the heap.
func (c *config) loadSnapshotEngine(path string) (*repro.Engine, error) {
	ds, err := repro.LoadSnapshotFile(path, c.datasetOptions()...)
	if err != nil {
		return nil, fmt.Errorf("loading snapshot %s: %w", path, err)
	}
	return repro.NewEngine(ds, c.engineOptions()...)
}

// buildRegistry assembles the served datasets per the validated config.
// With -wal, walMgr is non-nil: leaked temp files are swept first, then
// each snapshot-loaded dataset is rolled forward through its .wal before
// serving (see walManager.openAndReplay).
func (c *config) buildRegistry(logger *log.Logger, walMgr *walManager) (*server.Registry, error) {
	reg := server.NewRegistry()
	switch {
	case c.dataDir != "":
		// Glob returns (nil, nil) for a missing directory; a typo'd
		// -data-dir must fail startup, not serve an empty daemon that
		// 404s every query. An existing-but-empty directory stays legal.
		info, err := os.Stat(c.dataDir)
		if err != nil {
			return nil, fmt.Errorf("-data-dir: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("-data-dir %s is not a directory", c.dataDir)
		}
		// Sweep before anything opens the directory's files for writing:
		// a crash mid-WriteSnapshotFile or mid-compaction leaks .snap-* /
		// .wal-* temp files that would otherwise accumulate forever.
		if _, err := sweepOrphans(c.dataDir, logger); err != nil {
			return nil, fmt.Errorf("-data-dir: %w", err)
		}
		paths, err := filepath.Glob(filepath.Join(c.dataDir, "*.snap"))
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".snap")
			if !server.ValidDatasetName(name) {
				return nil, fmt.Errorf("snapshot %s: %q is not a servable dataset name", path, name)
			}
			eng, err := c.loadSnapshotEngine(path)
			if err != nil {
				return nil, err
			}
			if walMgr != nil {
				if eng, err = walMgr.openAndReplay(name, eng); err != nil {
					return nil, err
				}
			}
			if err := reg.Add(name, eng); err != nil {
				return nil, err
			}
			ds := eng.Dataset()
			st := ds.Storage()
			logger.Printf("loaded %s: %d records (%d attributes, fingerprint %s, %s v%d) as %q",
				path, ds.Len(), ds.Dim(), ds.Fingerprint(), st.Mode, st.SnapshotVersion, name)
		}
		if walMgr != nil {
			warnStrayWALs(c.dataDir, func(name string) bool {
				_, release, err := reg.Acquire(name)
				if err != nil {
					return false
				}
				release()
				return true
			}, logger)
		}
		if reg.Len() == 0 {
			logger.Printf("warning: no *.snap files in %s; serving empty until datasets are attached", c.dataDir)
		}
	default:
		ds, err := c.buildSingleDataset()
		if err != nil {
			return nil, err
		}
		eng, err := repro.NewEngine(ds, c.engineOptions()...)
		if err != nil {
			return nil, err
		}
		if err := reg.Add(server.DefaultDataset, eng); err != nil {
			return nil, err
		}
		logger.Printf("serving %d records (%d attributes, fingerprint %s) as %q",
			ds.Len(), ds.Dim(), ds.Fingerprint(), server.DefaultDataset)
	}
	return reg, nil
}

// snapshotWriter is the -resnapshot write-behind: after every successful
// mutation it persists the dataset's new version to <data-dir>/<name>.snap
// through the same atomic temp+rename path as build-snapshot, so a served
// directory restarts into the mutated state instead of the original one.
// Writes are serialised, and each hook re-checks the registry before
// writing: only the hook whose version is still the dataset's *current*
// version writes, so when quick mutations race the older image can never
// land on disk last, and a hook outliving its dataset (detached, or
// detached and re-attached — which restarts the version counter) skips
// rather than suppressing or clobbering the new lineage's snapshots.
type snapshotWriter struct {
	dir    string
	reg    *server.Registry
	logger *log.Logger
	walMgr *walManager // non-nil with -wal: a durable snapshot compacts the log
	mu     sync.Mutex  // serialises the disk writes
}

func newSnapshotWriter(dir string, reg *server.Registry, logger *log.Logger, walMgr *walManager) *snapshotWriter {
	return &snapshotWriter{dir: dir, reg: reg, logger: logger, walMgr: walMgr}
}

// hook implements server.WithMutationHook. It runs on the server's hook
// goroutine — the mutate request has already been answered — and holds the
// writer lock across the file write, so concurrent mutations re-snapshot
// one at a time.
func (w *snapshotWriter) hook(name string, eng *repro.Engine, version uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Write only if this engine still IS the served dataset. Comparing
	// engine identity (not the version counter) makes the guard
	// lineage-proof: a detach + re-attach under the same name restarts
	// the version counter, so a stale hook's number could coincide with
	// the new lineage's — but never its engine pointer.
	// The pin is held across the write: a graceful detach (Remove) drains
	// behind it, so the name cannot normally be detached and re-attached
	// mid-write and have a stale image land over the new lineage's file.
	// One residual window matches Remove's documented straggler
	// semantics: a Remove that *times out* its drain detaches anyway, and
	// a re-attach then races a still-running write. Operators who detach
	// with a 504 in hand should let the drain window pass before reusing
	// the name.
	cur, release, err := w.reg.Acquire(name)
	if err != nil {
		w.logger.Printf("resnapshot %q v%d skipped: %v", name, version, err)
		return
	}
	defer release()
	if cur != eng {
		// A newer mutation already swapped in (its own hook, serialised
		// behind w.mu, writes after us), or the name now serves a
		// different lineage. Either way this engine no longer represents
		// the served dataset.
		w.logger.Printf("resnapshot %q v%d superseded", name, version)
		return
	}
	path := filepath.Join(w.dir, name+".snap")
	if err := eng.Dataset().WriteSnapshotFile(path); err != nil {
		w.logger.Printf("resnapshot %q v%d: %v (snapshot on disk is stale until the next mutation)", name, version, err)
		return
	}
	ds := eng.Dataset()
	w.logger.Printf("resnapshot %q v%d: %d records (fingerprint %s) -> %s",
		name, version, ds.Len(), ds.Fingerprint(), path)
	if w.walMgr != nil {
		// The snapshot durably contains every state up to this version:
		// the log records that produced them are superseded. Mutations
		// racing this write stay in the log — CompactTo drops only the
		// prefix up to the snapshot's fingerprint.
		w.walMgr.compactTo(name, ds.Fingerprint())
	}
}

// buildSingleDataset loads the CSV or generates the synthetic dataset.
func (c *config) buildSingleDataset() (*repro.Dataset, error) {
	if c.dataPath != "" {
		rows, err := dataset.ReadCSVFile(c.dataPath, c.normalize)
		if err != nil {
			return nil, err
		}
		return repro.NewDataset(rows, c.datasetOptions()...)
	}
	return repro.GenerateDataset(c.gen, c.n, c.dim, c.seed, c.datasetOptions()...)
}

func main() {
	var (
		cfg  config
		addr = flag.String("addr", ":8080", "listen address")
	)
	flag.StringVar(&cfg.dataPath, "data", "", "CSV dataset path (one of -data, -gen, -data-dir)")
	flag.StringVar(&cfg.gen, "gen", "", "generate a synthetic dataset: IND, COR or ANTI")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "serve every *.snap index snapshot in this directory")
	flag.IntVar(&cfg.n, "n", 10000, "synthetic dataset cardinality (with -gen)")
	flag.IntVar(&cfg.dim, "dim", 3, "synthetic dataset dimensionality (with -gen)")
	flag.Int64Var(&cfg.seed, "seed", 1, "synthetic dataset seed (with -gen)")
	flag.BoolVar(&cfg.normalize, "normalize", false, "min-max normalise attributes to [0,1] (with -data)")
	flag.IntVar(&cfg.cacheCap, "cache", 4096, "per-dataset result cache capacity in entries (0 disables)")
	flag.IntVar(&cfg.parallel, "parallel", 0, "batch worker pool size (0 = GOMAXPROCS); with -page-latency, a pool larger than the core count overlaps the simulated waits")
	flag.BoolVar(&cfg.resnapshot, "resnapshot", false, "write each mutated dataset back to <data-dir>/<name>.snap (with -data-dir)")
	mmapOn := flag.Bool("mmap", true, "serve format-v2 snapshots zero-copy via a read-only memory mapping (false = decode onto the heap)")
	flag.BoolVar(&cfg.wal, "wal", false, "write-ahead log mutations to <data-dir>/<name>.wal and replay them over snapshots at startup (with -data-dir)")
	flag.StringVar(&cfg.walSync, "wal-sync", "always", "WAL durability: always (fsync per mutation), interval, or none")
	flag.DurationVar(&cfg.walSyncInterval, "wal-sync-interval", 100*time.Millisecond, "WAL flush period with -wal-sync interval")
	flag.DurationVar(&cfg.pageLatency, "page-latency", 0, "simulated latency per index page access (disk-resident scenario; 0 = in-memory)")
	var (
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 = none)")
		maxBatch   = flag.Int("max-batch", 1024, "max focals per /v1/batch request")
		// Admission control (see docs/OPERATIONS.md, "Overload tuning"):
		// beyond max-inflight concurrent executions per dataset, up to
		// queue-depth requests wait; the rest are shed early with 429,
		// and queued requests whose -request-timeout cannot be met are
		// shed with 503 — both with Retry-After.
		maxInflight = flag.Int("max-inflight", 0, "per-dataset concurrent execution cap; excess queues then sheds 429/503 (0 = unbounded)")
		queueDepth  = flag.Int("queue-depth", 128, "per-dataset admission queue depth (with -max-inflight)")
		aging       = flag.Duration("aging", 5*time.Second, "time a waiter queues before it is promoted one priority tier (0 = strict priority, with -max-inflight)")
		quota       = flag.Float64("quota", 0, "per-client request rate limit in requests/second; excess sheds 429 (0 = off)")
		quotaBurst  = flag.Int("quota-burst", 0, "per-client token-bucket burst size (0 = one second of -quota, min 1)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	)
	flag.Parse()
	cfg.noMmap = !*mmapOn
	logger := log.New(os.Stderr, "maxrankd: ", log.LstdFlags)

	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "maxrankd: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var walMgr *walManager
	if cfg.wal {
		walMgr = newWALManager(cfg.dataDir, cfg.walPolicy(), cfg.walSyncInterval, logger)
		defer walMgr.Close()
		if !cfg.resnapshot {
			logger.Printf("warning: -wal without -resnapshot: logs grow without bound (nothing ever compacts them)")
		}
	}
	reg, err := cfg.buildRegistry(logger, walMgr)
	if err != nil {
		logger.Fatal(err)
	}
	srvOpts := []server.Option{
		server.WithRequestTimeout(*reqTimeout),
		server.WithMaxBatch(*maxBatch),
		server.WithAdmission(*maxInflight, *queueDepth),
		server.WithAging(*aging),
		server.WithLogger(logger),
		server.WithSnapshotLoader(cfg.loadSnapshotEngine),
	}
	if *quota > 0 {
		burst := *quotaBurst
		if burst < 1 {
			burst = int(math.Ceil(*quota))
		}
		srvOpts = append(srvOpts, server.WithQuota(*quota, burst))
	}
	if cfg.resnapshot {
		srvOpts = append(srvOpts, server.WithMutationHook(newSnapshotWriter(cfg.dataDir, reg, logger, walMgr).hook))
	}
	if walMgr != nil {
		srvOpts = append(srvOpts, server.WithMutationLog(walMgr))
	}
	srv, err := server.NewMulti(reg, srvOpts...)
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Listen before Serve so the bound address (e.g. with -addr :0) is
	// known and logged — the crash-recovery harness parses it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	logger.Printf("listening on %s", ln.Addr())
	logger.Printf("serving %d dataset(s) on %s (cache=%d per dataset)", reg.Len(), ln.Addr(), cfg.cacheCap)

	select {
	case err := <-done:
		if err != nil {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Printf("shutting down (drain %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		<-done
	}
	logger.Printf("bye")
}

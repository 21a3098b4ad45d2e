package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
)

// tracedFocals is the list length of a traced engine run. Each focal is
// answered twice (once inside a span, once outside, for the tracing
// overhead), replayed layer by layer, and run once more through core, so a
// traced focal costs a good three times an untraced one.
const tracedFocals = 32

// speedupFocals is how many of the list's heaviest focals are run at one
// worker and at nproc workers for core.parallel_speedup.
const speedupFocals = 8

// traced is the traced run of an engine workload: per focal, span
// engine.query around the real query, then span core.run around the
// algorithm on the mirror, then span replay around the layer replay on the
// mirror. The spans go to trace.<workload>.json; the per-layer metrics are sums of
// span durations and counts divided by the focals answered.
func (e *engineEnv) traced() (*outcome, error) {
	cfg := e.cfg
	out := &outcome{Metrics: map[string]sample{}}
	mt := out.Metrics

	pts, _, err := e.shape.generate()
	if err != nil {
		return nil, err
	}
	heap, bulk, err := heapMirror(pts)
	if err != nil {
		return nil, err
	}
	mt["rstar.bulkload_ms"] = sample{ms(bulk), 1}
	mt["pager.heap_read_ns"] = sample{pageReadNs(heap.src), heap.src.NumPages()}
	m := heap
	if e.mapped {
		mapped, mapD, err := mappedMirror(e.snapPath())
		if err != nil {
			return nil, err
		}
		defer mapped.close()
		m = mapped
		mt["mmap.map_us"] = sample{us(mapD), 1}
		mt["pager.mapped_read_ns"] = sample{pageReadNs(mapped.src), mapped.src.NumPages()}
		if err := snapshotLayer(e.snapPath(), mt); err != nil {
			return nil, err
		}
	}

	span := len(e.pool.Focals)
	if cfg.Quick {
		span /= 4
	}
	list := stratifiedSample(rand.New(rand.NewSource(cfg.Seed)), span, tracedFocals)

	tr := newTracer()
	rp := &replayer{tr: tr, m: m}
	var c checker
	var stats repro.Stats // summed over the focals answered
	var plain, inSpan time.Duration
	window := time.Duration(cfg.Seconds * float64(time.Second))
	ops := 0
	start := time.Now()
	for pass := 0; pass == 0 || (!cfg.Quick && time.Since(start) < window); pass++ {
		for i, pi := range list {
			focal := e.pool.Focals[pi]
			tr.nextOp()
			c.attempted++
			// The same query outside and inside a span, in alternating
			// order, gives the overhead of recording.
			var res *repro.Result
			query := func(traced bool) error {
				if traced {
					tr.begin("engine.query")
				}
				t := time.Now()
				r, err := e.eng.Query(context.Background(), focal)
				d := time.Since(t)
				if traced {
					tr.end()
					inSpan += d
				} else {
					plain += d
				}
				res = r
				return err
			}
			for _, traced := range []bool{i%2 == 0, i%2 != 0} {
				if err := query(traced); err != nil {
					return nil, err
				}
			}
			e.check(&c, pi, res, pass == 0)

			var cres *core.Result
			var err error
			tr.do("core.run", func() {
				cres, err = core.StrategyAA.Run(core.Input{Tree: m.tree, Focal: m.pts[focal], FocalID: int64(focal), Workers: 1})
			})
			if err != nil {
				return nil, err
			}
			tr.begin("replay")
			err = rp.replay(focal, res)
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("replay of focal %d: %w", focal, err)
			}
			if cres.KStar != res.KStar || cres.Stats.LPCalls != res.Stats.LPCalls || cres.Stats.IO != res.Stats.IO {
				c.failf("focal %d: core on the mirror gives k*=%d lp=%d io=%d, the engine k*=%d lp=%d io=%d", focal,
					cres.KStar, cres.Stats.LPCalls, cres.Stats.IO, res.KStar, res.Stats.LPCalls, res.Stats.IO)
			}
			ops++
			stats.LPCalls += res.Stats.LPCalls
			stats.IO += res.Stats.IO
			stats.IncomparableAccessed += res.Stats.IncomparableAccessed
			stats.HalfspacesInserted += res.Stats.HalfspacesInserted
			stats.LeavesProcessed += res.Stats.LeavesProcessed
			stats.LeavesPruned += res.Stats.LeavesPruned
			stats.Iterations += res.Stats.Iterations
		}
	}

	// One batch of the list's eight cheapest focals through Engine.QueryBatch.
	sorted := append([]int(nil), list...)
	sort.Ints(sorted)
	var batch []int
	for _, pi := range sorted[:speedupFocals] {
		batch = append(batch, e.pool.Focals[pi])
	}
	t := time.Now()
	if _, err := e.eng.QueryBatch(context.Background(), batch); err != nil {
		return nil, err
	}
	mt["engine.batch_ms"] = sample{ms(time.Since(t)), 1}

	// The eight heaviest at one worker and at nproc workers.
	var one, many time.Duration
	for _, pi := range sorted[len(sorted)-speedupFocals:] {
		focal := e.pool.Focals[pi]
		for _, workers := range []int{1, runtime.NumCPU()} {
			t := time.Now()
			if _, err := core.StrategyAA.Run(core.Input{Tree: m.tree, Focal: m.pts[focal], FocalID: int64(focal), Workers: workers}); err != nil {
				return nil, err
			}
			if workers == 1 {
				one += time.Since(t)
			} else {
				many += time.Since(t)
			}
		}
	}
	mt["core.parallel_speedup"] = sample{float64(one) / float64(many), speedupFocals}

	total := totalByName(tr.spans)
	self, count := selfByName(tr.spans)
	perQueryMs := func(name string) sample { return sample{per(float64(total[name])/1e6, ops), ops} }
	tt := rp.totals
	mt["lp.solve_ns"] = sample{per(float64(total["lp.solve"]), count["lp.solve"]), count["lp.solve"]}
	mt["lp.calls_per_query"] = sample{per(float64(stats.LPCalls), ops), ops}
	mt["lp.allocs_per_solve"] = sample{per(tt.solveMallocs, tt.solves), tt.solves}
	mt["geom.feasible_us"] = sample{per(float64(total["geom.feasible"])/1e3, count["geom.feasible"]), count["geom.feasible"]}
	mt["cellenum.enumerate_ms"] = perQueryMs("cellenum.enumerate")
	mt["cellenum.leaves_processed"] = sample{per(float64(stats.LeavesProcessed), ops), ops}
	mt["cellenum.leaves_pruned"] = sample{per(float64(stats.LeavesPruned), ops), ops}
	mt["cellenum.cells_per_lp"] = sample{per(float64(tt.cells), tt.lpCalls), tt.lpCalls}
	mt["cellenum.allocs_per_leaf"] = sample{per(tt.enumMallocs, tt.leavesCounted), tt.leavesCounted}
	mt["quadtree.insert_ms"] = perQueryMs("quadtree.insert")
	mt["quadtree.halfspaces_per_query"] = sample{per(float64(stats.HalfspacesInserted), ops), ops}
	mt["quadtree.leaves_per_query"] = sample{per(float64(tt.leaves), ops), ops}
	mt["quadtree.allocs_per_build"] = sample{per(tt.buildMallocs, ops), ops}
	mt["skyline.build_ms"] = perQueryMs("skyline.build")
	mt["skyline.expand_ms"] = perQueryMs("skyline.expand")
	mt["skyline.accessed_per_query"] = sample{per(float64(stats.IncomparableAccessed), ops), ops}
	mt["rstar.count_dominators_ms"] = perQueryMs("rstar.count_dominators")
	mt["rstar.scan_ms"] = perQueryMs("rstar.scan")
	mt["pager.reads_per_query"] = sample{per(float64(stats.IO), ops), ops}
	mt["core.run_ms"] = perQueryMs("core.run")
	replayed := total["rstar.count_dominators"] + total["skyline.build"] + total["skyline.expand"] +
		total["quadtree.insert"] + total["cellenum.enumerate"]
	mt["core.self_ms"] = sample{per(float64(total["core.run"]-replayed)/1e6, ops), ops}
	mt["core.iterations_per_query"] = sample{per(float64(stats.Iterations), ops), ops}
	mt["engine.overhead_us"] = sample{per(float64(total["engine.query"]-total["core.run"])/1e3, ops), ops}
	mt["trace.overhead_share"] = sample{float64(inSpan) / float64(plain), ops}

	// Where the replay's time went, by layer, for the log.
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return 100 * float64(ns) / float64(total["replay"])
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d focals traced in %.1f s; self time as a share of replay: cellenum+geom+lp %.1f%%, skyline %.1f%%, quadtree %.1f%%, rstar %.1f%%, replay itself %.1f%%",
			ops, time.Since(start).Seconds(), share("cellenum.enumerate", "geom.feasible", "lp.solve"),
			share("skyline.build", "skyline.expand"), share("quadtree.insert"),
			share("rstar.count_dominators", "rstar.scan"), share("replay")))
	path, err := tr.write(cfg.OutDir, cfg.Workload)
	if err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	c.finish(cfg, out)
	return out, nil
}

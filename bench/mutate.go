package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/pager"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// mutate_cycle: the write path beside full-scan reads. One caller repeats a
// cycle on a heap dataset: Engine.Apply of 32 inserts and 32 deletes, the
// batch appended to a write-ahead log (the acknowledge latency, op_*_ms),
// two FCA reads on the successor; every fourth cycle also writes a v2
// snapshot, maps it back and reads four more times from the mapping. The WAL
// runs with sync policy "none" — the sandbox's fsync says nothing about a
// device — and the run ends by replaying the log over the last snapshot,
// which must reproduce the live engine's fingerprint.
const (
	snapshotEvery = 4
	heapReads     = 2
	mappedReads   = 4
	digestCycles  = 40
	crossChecks   = 16 // FCA against Auto on the final dataset, time permitting
	crossCheckCap = 300 * time.Millisecond
	quickShrink   = 5 // -quick divides the dataset size by this
)

type mutateEnv struct {
	cfg   runConfig
	shape shape
	dir   string

	eng    *repro.Engine
	log    *wal.Log
	snapFP string // fingerprint of the dataset in the last snapshot written
}

func (m *mutateEnv) walPath() string  { return filepath.Join(m.dir, "mutate.wal") }
func (m *mutateEnv) snapPath() string { return filepath.Join(m.dir, "mutate.snap") }

// setup is what setup_s times: data, index, engine, a base snapshot written
// and mapped back once, an empty log, and two reads.
func (m *mutateEnv) setup() error {
	_, rows, err := m.shape.generate()
	if err != nil {
		return err
	}
	ds, err := repro.NewDataset(rows)
	if err != nil {
		return err
	}
	if m.eng, err = repro.NewEngine(ds, repro.WithQueryParallelism(1)); err != nil {
		return err
	}
	if err := m.writeSnapshot(nil); err != nil {
		return err
	}
	mapped, err := repro.LoadSnapshotFile(m.snapPath())
	if err != nil {
		return err
	}
	mapped.Close()
	if err := os.Remove(m.walPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if m.log, _, err = wal.Open(m.walPath(), wal.Options{Sync: wal.SyncNone}); err != nil {
		return err
	}
	for _, focal := range []int{0, ds.Len() / 2} {
		if _, err := m.eng.Query(context.Background(), focal, repro.WithAlgorithm(repro.FCA)); err != nil {
			return err
		}
	}
	return nil
}

func (m *mutateEnv) teardown() {
	if m.log != nil {
		m.log.Close()
		m.log = nil
	}
}

func (m *mutateEnv) writeSnapshot(tr *tracer) error {
	var err error
	tr.do("snapshot.write", func() {
		err = m.eng.Dataset().WriteSnapshotFileVersion(m.snapPath(), snapshot.Version2, false)
	})
	m.snapFP = m.eng.Dataset().Fingerprint()
	return err
}

// mutateTimings are the latencies a run collects, by step.
type mutateTimings struct {
	apply, applyOnly, append_, readHeap, readMapped, write, load timings
	reads                                                        int
	io                                                           int64
	plainRead, spanRead                                          time.Duration
}

// read answers one FCA query and checks it by direct scoring.
func read(tr *tracer, name string, eng *repro.Engine, focal int, c *checker, id string, hash bool) (time.Duration, int64) {
	var res *repro.Result
	var err error
	c.attempted++
	d := tr.do(name, func() { res, err = eng.Query(context.Background(), focal, repro.WithAlgorithm(repro.FCA)) })
	if err != nil {
		c.failf("read %s focal %d: %v", id, focal, err)
		return d, 0
	}
	c.validate(eng.Dataset(), focal, res)
	if hash {
		c.answer(id, res.KStar, len(res.Regions), res.Stats.IO)
	}
	return d, res.Stats.IO
}

// cycle runs cycle number n and records its timings.
func (m *mutateEnv) cycle(n int, tr *tracer, c *checker, mt *mutateTimings) error {
	ctx := context.Background()
	ds := m.eng.Dataset()
	in := mutationFor(m.cfg.Seed, n, ds.Len(), ds.Dim())
	ops := make([]repro.Op, 0, len(in.Inserts)+len(in.Deletes))
	logged := make([]wal.Op, 0, cap(ops))
	for _, p := range in.Inserts {
		ops = append(ops, repro.InsertOp(p))
		logged = append(logged, wal.Op{Kind: wal.OpInsert, Point: p})
	}
	for _, i := range in.Deletes {
		ops = append(ops, repro.DeleteOp(i))
		logged = append(logged, wal.Op{Kind: wal.OpDelete, Index: int64(i)})
	}
	hash := n < digestCycles
	tr.nextOp()
	if tr != nil {
		tr.begin("mutate.cycle")
		defer tr.end()
	}

	// Acknowledge latency: the successor engine exists and the batch is in
	// the log, fingerprints and all.
	c.attempted++
	var next *repro.Engine
	var err error
	applyD := tr.do("engine.apply", func() { next, err = m.eng.Apply(ctx, ops) })
	if err != nil {
		return err
	}
	// The log record chains content fingerprints; hashing the successor's
	// 100000 records is part of acknowledging.
	var fp string
	hashD := tr.do("dataset.fingerprint", func() { fp = next.Dataset().Fingerprint() })
	appendD := tr.do("wal.append", func() {
		err = m.log.Append(wal.Record{BaseVersion: uint64(n), BaseFingerprint: ds.Fingerprint(), NewFingerprint: fp, Ops: logged})
	})
	if err != nil {
		return err
	}
	mt.apply.add(applyD + hashD + appendD)
	mt.append_.add(appendD)
	mt.applyOnly.add(applyD)
	m.eng = next
	if next.Dataset().Len() != ds.Len() {
		c.failf("cycle %d: %d records after 32 inserts and 32 deletes on %d", n, next.Dataset().Len(), ds.Len())
	}
	if hash {
		c.answer(fmt.Sprintf("c%d.%s", n, next.Dataset().Fingerprint()), 0, 0, 0)
	}

	for k, focal := range in.Reads[:heapReads] {
		// In a traced run, once more outside a span, before or after in
		// turn, for the overhead of recording.
		plain := func() error {
			t := time.Now()
			_, err := m.eng.Query(ctx, focal, repro.WithAlgorithm(repro.FCA))
			mt.plainRead += time.Since(t)
			return err
		}
		if tr != nil && (n+k)%2 == 0 {
			if err := plain(); err != nil {
				return err
			}
		}
		d, io := read(tr, "engine.query.heap", m.eng, focal, c, fmt.Sprintf("c%d.h%d", n, k), hash)
		if tr != nil && (n+k)%2 != 0 {
			if err := plain(); err != nil {
				return err
			}
		}
		mt.readHeap.add(d)
		mt.spanRead += d
		mt.io += io
		mt.reads++
	}
	if n%snapshotEvery != snapshotEvery-1 {
		return nil
	}

	t := time.Now()
	if err := m.writeSnapshot(tr); err != nil {
		return err
	}
	mt.write.add(time.Since(t))
	var mapped *repro.Dataset
	mt.load.add(tr.do("snapshot.load", func() { mapped, err = repro.LoadSnapshotFile(m.snapPath()) }))
	if err != nil {
		return err
	}
	defer mapped.Close()
	if mapped.Storage().Mode != repro.StorageMmap || mapped.Fingerprint() != m.snapFP {
		c.failf("cycle %d: reloaded snapshot is %s with fingerprint %s, wrote %s", n, mapped.Storage().Mode, mapped.Fingerprint(), m.snapFP)
	}
	meng, err := repro.NewEngine(mapped, repro.WithQueryParallelism(1))
	if err != nil {
		return err
	}
	for k, focal := range in.Reads[heapReads : heapReads+mappedReads] {
		d, io := read(tr, "engine.query.mapped", meng, focal, c, fmt.Sprintf("c%d.m%d", n, k), hash)
		mt.readMapped.add(d)
		mt.io += io
		mt.reads++
	}
	return nil
}

// durability replays the log over the last snapshot, as a restart would,
// and compares the result with the live engine.
func (m *mutateEnv) durability(tr *tracer, c *checker) (replay time.Duration, err error) {
	c.attempted++
	if err := m.log.Close(); err != nil {
		return 0, err
	}
	m.log = nil
	base, err := repro.LoadSnapshotFile(m.snapPath())
	if err != nil {
		return 0, err
	}
	defer base.Close()
	var pending []wal.Record
	replay = tr.do("wal.replay", func() {
		var f *os.File
		if f, err = os.Open(m.walPath()); err != nil {
			return
		}
		defer f.Close()
		var recs []wal.Record
		if recs, _, err = wal.Scan(f); err != nil {
			return
		}
		pending, err = wal.Plan(recs, base.Fingerprint())
	})
	if err != nil {
		return 0, err
	}
	ds := base
	for _, rec := range pending {
		ops := make([]repro.Op, len(rec.Ops))
		for i, op := range rec.Ops {
			if op.Kind == wal.OpInsert {
				ops[i] = repro.InsertOp(op.Point)
			} else {
				ops[i] = repro.DeleteOp(int(op.Index))
			}
		}
		if ds, err = ds.Apply(ops); err != nil {
			return 0, err
		}
		if ds.Fingerprint() != rec.NewFingerprint {
			c.failf("replay diverged: record promises %s, got %s", rec.NewFingerprint, ds.Fingerprint())
		}
	}
	if live := m.eng.Dataset().Fingerprint(); ds.Fingerprint() != live {
		c.failf("snapshot + %d logged batches give %s, the live engine has %s", len(pending), ds.Fingerprint(), live)
	}
	return replay, nil
}

// crossCheck compares FCA with Auto on a few focals of the final dataset:
// the strongest records (largest attribute sum) of a seeded sample, which AA
// answers quickly. One that still takes it longer than crossCheckCap is
// skipped rather than waited for.
func (m *mutateEnv) crossCheck(c *checker) (checked int) {
	ds := m.eng.Dataset()
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	type cand struct {
		focal int
		sum   float64
	}
	cands := make([]cand, 40*crossChecks)
	for i := range cands {
		cands[i].focal = rng.Intn(ds.Len())
		pt, _ := ds.Point(cands[i].focal)
		for _, v := range pt {
			cands[i].sum += v
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].sum > cands[b].sum })
	for _, cd := range cands[:crossChecks] {
		ctx, cancel := context.WithTimeout(context.Background(), crossCheckCap)
		auto, err := m.eng.Query(ctx, cd.focal)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		c.attempted++
		fca, ferr := m.eng.Query(context.Background(), cd.focal, repro.WithAlgorithm(repro.FCA))
		if err != nil || ferr != nil {
			c.failf("cross-check focal %d: %v %v", cd.focal, err, ferr)
			continue
		}
		if auto.KStar != fca.KStar {
			c.failf("focal %d: Auto k*=%d, FCA k*=%d", cd.focal, auto.KStar, fca.KStar)
		}
		checked++
	}
	return checked
}

func runMutate(cfg runConfig) (*outcome, error) {
	m := &mutateEnv{cfg: cfg, shape: shapes[cfg.Workload]}
	if cfg.Quick {
		m.shape.N /= quickShrink
	}
	var err error
	if m.dir, err = cfg.scratchDir(); err != nil {
		return nil, err
	}
	defer removeAll(m.dir)
	defer m.teardown()
	setupS, err := medianSetup(cfg.setupReps(), m.setup, m.teardown)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}

	var c checker
	var mt mutateTimings
	var mem memWindow
	window := time.Duration(cfg.Seconds * float64(time.Second))
	cycles := 0
	mem.start()
	start := time.Now()
	for ; cycles < minOps || cycles%snapshotEvery != 0 || (!cfg.Quick && time.Since(start) < window); cycles++ {
		if err := m.cycle(cycles, tr, &c, &mt); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycles, err)
		}
	}
	elapsed := time.Since(start)
	mem.stop()
	snapBytes := int64(0)
	if st, err := os.Stat(m.snapPath()); err == nil {
		snapBytes = st.Size()
	}
	replay, err := m.durability(tr, &c)
	if err != nil {
		return nil, err
	}
	checked := m.crossCheck(&c)

	out := &outcome{Metrics: map[string]sample{}}
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d cycles of %d inserts + %d deletes on %d records in %.1f s; WAL sync policy none; %d snapshots",
			cycles, insertsPerCycle, deletesPerCycle, m.shape.N, elapsed.Seconds(), len(mt.write)),
		fmt.Sprintf("FCA agreed with Auto on %d of %d cross-checked focals (the rest exceeded %v and were skipped)", checked, crossChecks, crossCheckCap))
	if cfg.Trace {
		if err := m.layers(tr, &mt, cycles, snapBytes, replay, out); err != nil {
			return nil, err
		}
		c.finish(cfg, out)
		return out, nil
	}
	p50, err := mt.apply.percentile(50)
	if err != nil {
		return nil, err
	}
	p90, err := mt.apply.percentile(90)
	if err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = sample{setupS, cfg.setupReps()}
	out.Metrics["ops_per_s"] = sample{float64(cycles) / elapsed.Seconds(), cycles}
	out.Metrics["op_p50_ms"] = sample{p50, cycles}
	out.Metrics["op_p90_ms"] = sample{p90, cycles}
	out.Metrics["allocs_per_op"] = sample{mem.mallocs() / float64(cycles), cycles}
	out.Metrics["alloc_kb_per_op"] = sample{mem.allocKiB() / float64(cycles), cycles}
	c.finish(cfg, out)
	return out, nil
}

// layers derives the per-layer metrics of a traced mutate_cycle run.
func (m *mutateEnv) layers(tr *tracer, mt *mutateTimings, cycles int, snapBytes int64, replay time.Duration, out *outcome) error {
	met := out.Metrics
	opsApplied := cycles * (insertsPerCycle + deletesPerCycle)
	for name, t := range map[string]timings{
		"mutate.read_heap_p50_ms":   mt.readHeap,
		"mutate.read_mapped_p50_ms": mt.readMapped,
		"snapshot.write_p50_ms":     mt.write,
		"snapshot.load_p50_ms":      mt.load,
	} {
		v, err := t.percentile(50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		met[name] = sample{v, len(t)}
	}
	met["mutate.apply_us_per_op"] = sample{1000 * mt.applyOnly.sum() / float64(opsApplied), opsApplied}
	met["wal.append_us"] = sample{1000 * mt.append_.sum() / float64(cycles), cycles}
	if st, err := os.Stat(m.walPath()); err == nil {
		met["wal.bytes_per_op"] = sample{float64(st.Size()) / float64(opsApplied), opsApplied}
	}
	met["wal.replay_ms"] = sample{ms(replay), 1}
	met["snapshot.space_amp"] = sample{float64(snapBytes) / float64(m.shape.N*m.shape.D*8), 1}
	met["pager.reads_per_query"] = sample{per(float64(mt.io), mt.reads), mt.reads}
	met["trace.overhead_share"] = sample{float64(mt.spanRead) / float64(mt.plainRead), len(mt.readHeap)}
	if err := snapshotLayer(m.snapPath(), met); err != nil {
		return err
	}

	// The index layers on mirrors of the base dataset: the mapped one from
	// the last snapshot, the heap one rebuilt, then mutated in place.
	mapped, mapD, err := mappedMirror(m.snapPath())
	if err != nil {
		return err
	}
	defer mapped.close()
	met["mmap.map_us"] = sample{us(mapD), 1}
	met["pager.mapped_read_ns"] = sample{pageReadNs(mapped.src), mapped.src.NumPages()}
	pts, _, err := m.shape.generate()
	if err != nil {
		return err
	}
	heap, bulk, err := heapMirror(pts)
	if err != nil {
		return err
	}
	met["rstar.bulkload_ms"] = sample{ms(bulk), 1}
	met["pager.heap_read_ns"] = sample{pageReadNs(heap.src), heap.src.NumPages()}
	rp := &replayer{tr: tr, m: heap}
	var reads pager.Tracker
	for i := 0; i < tracedFocals; i++ {
		focal := i * len(pts) / tracedFocals
		tr.nextOp()
		if err := rp.replayIndex(heap.tree.Reader(&reads), pts[focal], int64(focal)); err != nil {
			return err
		}
	}
	const edits = 256
	extra := mutationFor(m.cfg.Seed, -1, len(pts), m.shape.D)
	t := time.Now()
	for i := 0; i < edits; i++ {
		p := extra.Inserts[i%len(extra.Inserts)]
		if err := heap.tree.Insert(p, int64(len(pts)+i)); err != nil {
			return err
		}
	}
	met["rstar.insert_us"] = sample{us(time.Since(t)) / edits, edits}
	t = time.Now()
	for i := 0; i < edits; i++ {
		focal := i * len(pts) / edits
		if ok, err := heap.tree.Delete(pts[focal], int64(focal)); err != nil || !ok {
			return fmt.Errorf("mirror delete of record %d: found %t, %v", focal, ok, err)
		}
	}
	met["rstar.delete_us"] = sample{us(time.Since(t)) / edits, edits}
	totals := totalByName(tr.spans)
	met["rstar.count_dominators_ms"] = sample{float64(totals["rstar.count_dominators"]) / 1e6 / tracedFocals, tracedFocals}
	met["rstar.scan_ms"] = sample{float64(totals["rstar.scan"]) / 1e6 / tracedFocals, tracedFocals}

	path, err := tr.write(m.cfg.OutDir, m.cfg.Workload)
	if err != nil {
		return err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return nil
}

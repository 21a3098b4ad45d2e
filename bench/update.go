package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// poolPlan says how -update-testdata builds a workload's focal pool: how
// many seeded candidates to try and the answer time above which a candidate
// is left out.
type poolPlan struct {
	candidates int
	capMs      float64
}

var poolPlans = map[string]poolPlan{
	// Two records in five of IND n=1500 d=4 take AA longer than the cap, one
	// in eight over 250 ms, a few over 10 s. The cap is what lets a window
	// answer each of its 100 focals six times over.
	"heavy_d4": {candidates: 700, capMs: 100},
	"wide_d2":  {candidates: 1000, capMs: 100},
	// serve_mix draws focals from the whole dataset: the universe must
	// exceed the result cache.
	"serve_mix": {candidates: 2000, capMs: 1000},
}

// digestSeeds are the seeds whose answers digests are committed.
var digestSeeds = []int64{1, 2}

// updateTestdata rebuilds the focal pools under testdata/ (all, or only the
// named workload's) by answering every candidate on this machine. Pools
// order focals by measured time, so they are a property of the commit and
// machine that built them; the harness uses the order only to stratify its
// samples.
func updateTestdata(only string, outDir string) error {
	dir := filepath.Join("bench", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"heavy_d4", "wide_d2", "serve_mix"} {
		if only != "" && only != name {
			continue
		}
		p, err := buildPool(name, outDir)
		if err != nil {
			return fmt.Errorf("pool %s: %w", name, err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "pool_"+name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("pool %s: %d focals, %d of %d candidates over %.0f ms left out, total %.1f s\n",
			name, len(p.Focals), p.Excluded, p.Candidates, p.CapMs, timings(p.Ms).sum()/1000)
	}
	fmt.Println("pools written; run -update-digests with the rebuilt binary to refresh digests.json")
	return nil
}

// updateDigests reruns every workload at the committed seeds and records
// the answers digests. It is separate from the pools because the pools are
// embedded at build time.
func updateDigests(sp *spec, outDir string) error {
	digests := map[string]string{}
	for _, name := range sp.workloadNames() {
		for _, quick := range []bool{false, true} {
			for _, seed := range digestSeeds {
				cfg := runConfig{Workload: name, Seed: seed, Seconds: 0.1, Quick: quick, OutDir: outDir, Relabel: true}
				out, err := runWorkload(cfg)
				if err != nil {
					return err
				}
				if out.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d failed checks: %v", name, seed, out.Failed, out.Failures)
				}
				digests[digestKey(cfg)] = out.Digest
				fmt.Printf("%s = %s\n", digestKey(cfg), out.Digest)
			}
		}
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "testdata", "digests.json"), append(data, '\n'), 0o644)
}

func buildPool(name string, outDir string) (*pool, error) {
	plan := poolPlans[name]
	sh := shapes[name]
	// Set the environment up the way the workload does, with the pool it is
	// about to replace out of the picture.
	e := &engineEnv{cfg: runConfig{Workload: name, OutDir: outDir}, shape: sh, mapped: name == "wide_d2", pool: &pool{}}
	var err error
	if e.dir, err = e.cfg.scratchDir(); err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.setup(); err != nil {
		return nil, err
	}
	cands := rand.New(rand.NewSource(sh.Seed)).Perm(sh.N)
	if plan.candidates < len(cands) {
		cands = cands[:plan.candidates]
	}
	type row struct {
		focal, kstar, regions int
		ms                    float64
		io                    int64
	}
	var rows []row
	p := &pool{Dataset: sh, CapMs: plan.capMs, Candidates: len(cands)}
	limit := time.Duration(plan.capMs * float64(time.Millisecond))
candidates:
	for _, f := range cands {
		// The fastest of three answers: a single timing on a shared box
		// misplaces a focal by several strata.
		r := row{focal: f}
		for attempt := 0; attempt < 3; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), limit)
			t := time.Now()
			res, err := e.eng.Query(ctx, f)
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				p.Excluded++
				continue candidates
			}
			if err != nil {
				return nil, err
			}
			if attempt == 0 || ms < r.ms {
				r.ms = ms
			}
			r.kstar, r.regions, r.io = res.KStar, len(res.Regions), res.Stats.IO
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].ms < rows[b].ms })
	for _, r := range rows {
		p.Focals = append(p.Focals, r.focal)
		p.Ms = append(p.Ms, float64(int(r.ms*100))/100)
		p.KStar = append(p.KStar, r.kstar)
		p.Regions = append(p.Regions, r.regions)
		p.IO = append(p.IO, r.io)
	}
	return p, nil
}

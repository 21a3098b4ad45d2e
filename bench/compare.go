package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict judges one workload × metric: the candidate's median against the
// baseline's, under the metric's bound. A spread wider than the bound hides
// a change of the bound's size, so such a row is unresolved rather than ok,
// unless every candidate run beats every baseline run.
func verdict(m metricSpec, base, cand []float64) (worseShare, spread float64, v string) {
	mb, mc := median(base), median(cand)
	worseShare = (mc - mb) / mb
	if m.Better == "higher" {
		worseShare = -worseShare
	}
	spread = max(spreadShare(base), spreadShare(cand))
	switch {
	case m.Bound == 0:
		return worseShare, spread, "-"
	case worseShare > m.Bound:
		return worseShare, spread, "regression"
	case spread > m.Bound && !allBetter(m, base, cand):
		return worseShare, spread, "unresolved"
	}
	return worseShare, spread, "ok"
}

// allBetter reports whether every candidate value beats every baseline one.
func allBetter(m metricSpec, base, cand []float64) bool {
	for _, c := range cand {
		for _, b := range base {
			if (m.Better == "higher" && c <= b) || (m.Better != "higher" && c >= b) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per workload × metric of two result files and
// fails when any row is a regression or unresolved.
func compareFiles(sp *spec, basePath, candPath string, w io.Writer) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	if base.Traced != cand.Traced || base.Quick != cand.Quick || base.Seconds != cand.Seconds {
		return fmt.Errorf("the files were measured in different modes (traced %t/%t, quick %t/%t, seconds %g/%g)",
			base.Traced, cand.Traced, base.Quick, cand.Quick, base.Seconds, cand.Seconds)
	}
	fmt.Fprintf(w, "baseline  %s: %+v\ncandidate %s: %+v\n", basePath, base.Env, candPath, cand.Env)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tbaseline\tcandidate\tworse by\tspread\tbound\tverdict")
	bad := 0
	for _, wl := range sp.workloadNames() {
		for _, m := range sp.metrics(base.Traced) {
			bv, cv := values(base, wl, m.Name), values(cand, wl, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			worse, spread, v := verdict(m, bv, cv)
			if median(bv) == 0 {
				worse, spread = 0, 0
			}
			if v == "regression" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, len(bv), len(cv), median(bv), median(cv), 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are regressions or unresolved", bad)
	}
	return nil
}

func values(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
)

// strategies lists the built-in strategies.
var strategies = []Algorithm{StrategyFCA, StrategyBA, StrategyAA, StrategyAA2D}

// TestStrategyByName pins each built-in strategy's canonical name.
func TestStrategyByName(t *testing.T) {
	for i, want := range []string{"FCA", "BA", "AA", "AA2D"} {
		if got := strategies[i].Name(); got != want {
			t.Errorf("strategy %d is named %q, want %q", i, got, want)
		}
	}
}

func TestStrategyDims(t *testing.T) {
	for _, tc := range []struct {
		s    Algorithm
		want map[int]bool
	}{
		{StrategyFCA, map[int]bool{2: true, 3: false}},
		{StrategyAA2D, map[int]bool{2: true, 3: false}},
		{StrategyBA, map[int]bool{2: true, 3: true, 5: true}},
		{StrategyAA, map[int]bool{2: true, 3: true, 5: true}},
	} {
		for d, ok := range tc.want {
			if tc.s.SupportsDim(d) != ok {
				t.Errorf("%s.SupportsDim(%d) = %v, want %v", tc.s.Name(), d, !ok, ok)
			}
		}
	}
}

// TestBruteStrategyMatchesAA runs AA through the strategy interface
// against the exact reference on small instances.
func TestBruteStrategyMatchesAA(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := int64(6000 + trial)
		points := dataset.Generate(dataset.IND, 20, 3, seed)
		tree := buildTree(t, points)
		in := Input{Tree: tree, Focal: points[trial], FocalID: int64(trial)}
		aa, err := StrategyAA.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, fmt.Sprintf("trial %d: AA", trial), aa, exactReference(points, points[trial], trial, 0), 0)
	}
}

// TestInputIOAttribution checks that a caller-supplied tracker receives
// exactly the I/O the result reports.
func TestInputIOAttribution(t *testing.T) {
	points := dataset.Generate(dataset.IND, 500, 3, 9)
	tree := buildTree(t, points)
	tr := new(pager.Tracker)
	in := Input{Tree: tree, Focal: points[3], FocalID: 3, IO: tr}
	res, err := StrategyAA.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IO <= 0 {
		t.Fatal("no I/O reported")
	}
	if tr.Reads() != res.Stats.IO {
		t.Fatalf("tracker saw %d reads, result reports %d", tr.Reads(), res.Stats.IO)
	}
}

// TestRunCancelled checks every strategy returns promptly on an already
// cancelled context.
func TestRunCancelled(t *testing.T) {
	points := dataset.Generate(dataset.IND, 200, 2, 5)
	tree := buildTree(t, points)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range strategies {
		in := Input{Tree: tree, Focal: points[0], FocalID: 0, Ctx: ctx}
		if _, err := s.Run(in); err == nil {
			t.Errorf("%s: cancelled context accepted", s.Name())
		}
	}
}

package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// exactInstance is a small MaxRank query on the dyadic grid k/16, on which
// every coordinate and every half-space coefficient is exact in float.
type exactInstance struct {
	points   []vecmath.Point
	focal    vecmath.Point
	focalIdx int // −1 for a what-if focal
	tau      int
}

// decodeExactInstance reads an instance from fuzz bytes: d − 2 (mod 3),
// n − 1 (mod 10), the focal (bit 7 set: a what-if focal whose coordinates
// follow the records; otherwise the index mod n), τ (mod 3), then the n·d
// record coordinates, each byte b giving (b mod 17)/16. It reports false
// when the bytes run out.
func decodeExactInstance(data []byte) (exactInstance, bool) {
	if len(data) < 4 {
		return exactInstance{}, false
	}
	d := 2 + int(data[0])%3
	n := 1 + int(data[1])%10
	whatIf := data[2]&0x80 != 0
	in := exactInstance{focalIdx: int(data[2]) % n, tau: int(data[3]) % 3}
	need := n * d
	if whatIf {
		in.focalIdx = -1
		need += d
	}
	coords := data[4:]
	if len(coords) < need {
		return exactInstance{}, false
	}
	next := func() vecmath.Point {
		p := make(vecmath.Point, d)
		for i := range p {
			p[i] = float64(coords[i]%17) / 16
		}
		coords = coords[d:]
		return p
	}
	for i := 0; i < n; i++ {
		in.points = append(in.points, next())
	}
	if whatIf {
		in.focal = next()
	} else {
		in.focal = in.points[in.focalIdx]
	}
	return in, true
}

// encode is decodeExactInstance's inverse for coordinates on the grid.
func (in exactInstance) encode() []byte {
	d, n := len(in.focal), len(in.points)
	focal := byte(in.focalIdx)
	if in.focalIdx < 0 {
		focal = 0x80
	}
	out := []byte{byte(d - 2), byte(n - 1), focal, byte(in.tau)}
	pts := in.points
	if in.focalIdx < 0 {
		pts = append(pts[:n:n], in.focal)
	}
	for _, p := range pts {
		for _, v := range p {
			out = append(out, byte(v*16))
		}
	}
	return out
}

// exactSeeds are the fuzz target's seed instances. The first two are the
// cases whose within-leaf sample fell exactly on a hyperplane: BA (and, at
// d = 3, AA) used to answer k* = 1 from a zero-measure cell, where the
// exact answer is 2.
var exactSeeds = []exactInstance{
	{points: []vecmath.Point{{0.75, 0.25}, {0.25, 0.75}, {0.5, 0.5}}, focalIdx: 2},
	{points: []vecmath.Point{
		{0.75, 0.5, 0.25}, {0.75, 0.25, 0.75}, {0.5, 0.5, 0.75},
		{0.25, 0.75, 0.25}, {0.25, 0.75, 0.75}, {0.75, 0.25, 0.75},
	}, focalIdx: 2},
	// The first case with a what-if focal, and with τ = 2.
	{points: []vecmath.Point{{0.75, 0.25}, {0.25, 0.75}}, focal: vecmath.Point{0.5, 0.5}, focalIdx: -1},
	{points: []vecmath.Point{{0.75, 0.25}, {0.25, 0.75}, {0.5, 0.5}, {0.125, 0.875}}, focalIdx: 2, tau: 2},
	// Figure 1 of the paper, rounded to sixteenths.
	{points: []vecmath.Point{
		{0.8125, 0.875}, {0.1875, 0.6875}, {0.875, 0.375}, {0.6875, 0.1875}, {0.375, 0.3125}, {0.5, 0.5},
	}, focalIdx: 5, tau: 1},
	// Duplicates of the focal, a dominated focal, and the lone record.
	{points: []vecmath.Point{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.25, 0.75, 0.5}, {0.75, 0.25, 0.5}}, focalIdx: 0},
	{points: []vecmath.Point{{1, 1}, {0.25, 0.25}, {0.5, 0}, {0, 0.5}}, focalIdx: 1, tau: 1},
	{points: []vecmath.Point{{0.5, 0.5, 0.5, 0.5}}, focalIdx: 0},
	// d = 4 with ties on every axis.
	{points: []vecmath.Point{
		{0.5, 0.25, 0.75, 0.5}, {0.25, 0.5, 0.5, 0.75}, {0.75, 0.75, 0.25, 0.25},
		{0.5, 0.5, 0.5, 0.5}, {0.25, 0.75, 0.75, 0.25}, {0.75, 0.25, 0.5, 0.5},
	}, focalIdx: 3, tau: 1},
	{points: []vecmath.Point{
		{0.25, 0.5, 0.75}, {0.5, 0.75, 0.25}, {0.75, 0.25, 0.5}, {0.5, 0.5, 0.5},
		{0.375, 0.625, 0.5}, {0.625, 0.375, 0.5}, {0.5, 0.25, 0.75}, {0.5, 0.75, 0.25},
	}, focal: vecmath.Point{0.5, 0.5, 0.5}, focalIdx: -1, tau: 2},
}

func init() {
	for i := range exactSeeds {
		if s := &exactSeeds[i]; s.focalIdx >= 0 {
			s.focal = s.points[s.focalIdx]
		}
	}
}

// checkExactInstance runs every strategy that supports the instance's
// dimension, on a heap tree and on a mapped copy, against the exact
// reference, and returns the reference and the answers by run name.
func checkExactInstance(t *testing.T, in exactInstance) (*exactRef, map[string]*Result) {
	t.Helper()
	ref := exactReference(in.points, in.focal, in.focalIdx, in.tau)
	tree := buildTree(t, in.points)
	answers := map[string]*Result{}
	for _, s := range strategies {
		if !s.SupportsDim(len(in.focal)) {
			continue
		}
		for _, tr := range []struct {
			name string
			tree *rstar.Tree
		}{{"heap", tree}, {"mapped", mappedCopy(t, tree)}} {
			name := s.Name() + "/" + tr.name
			res, err := s.Run(Input{Tree: tr.tree, Focal: in.focal, FocalID: int64(in.focalIdx), Tau: in.tau})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkAgainstExact(t, name, res, ref, in.tau)
			answers[name] = res
		}
	}
	return ref, answers
}

// TestSampleOnHyperplaneCases: the two seed instances whose sample lay on
// a hyperplane answer k* = 2 from every strategy.
func TestSampleOnHyperplaneCases(t *testing.T) {
	for _, in := range exactSeeds[:2] {
		t.Run(fmt.Sprintf("d=%d", len(in.focal)), func(t *testing.T) {
			ref, answers := checkExactInstance(t, in)
			if ref.KStar != 2 {
				t.Errorf("exact k* = %d, want 2", ref.KStar)
			}
			for name, res := range answers {
				if res.KStar != 2 {
					t.Errorf("%s: k* = %d, want 2", name, res.KStar)
				}
			}
		})
	}
}

// FuzzExactAgreement decodes instances on the k/16 grid (d 2–4, n ≤ 10,
// in-dataset or what-if focal, duplicates allowed) and holds every
// strategy to the exact reference's contract.
func FuzzExactAgreement(f *testing.F) {
	for i, in := range exactSeeds {
		if got, ok := decodeExactInstance(in.encode()); !ok || fmt.Sprint(got) != fmt.Sprint(in) {
			f.Fatalf("seed %d does not round-trip: %v", i, got)
		}
		f.Add(in.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeExactInstance(data)
		if !ok {
			return
		}
		checkExactInstance(t, in)
	})
}

// TestGenerateFuzzCorpus (re)generates the committed seed corpus under
// testdata/fuzz/FuzzExactAgreement from exactSeeds. Skipped unless
// GEN_FUZZ_CORPUS=1:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/core -run TestGenerateFuzzCorpus
//
// Plain `go test` replays every committed entry on every run.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzExactAgreement")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, in := range exactSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(in.encode())))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(exactSeeds), dir)
}

package skyline

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// expandReplay is a recorded query: the dataset, the focal, and the Expand
// calls the engine issued for it (testdata/expand_*.txt says which query).
// Any sequence of then-live IDs is a valid replay whatever AA does today,
// so the files do not age with the algorithms above this package.
type expandReplay struct {
	name    string
	n, d    int
	seed    int64
	focalID int64
	file    string
}

var expandReplays = []expandReplay{
	{"d2_n5000", 5000, 2, 20150832, 2627, "testdata/expand_d2_n5000.txt"},
	{"d4_n1500", 1500, 4, 20150831, 765, "testdata/expand_d4_n1500.txt"},
}

func (r expandReplay) load(b *testing.B) (*rstar.Tree, vecmath.Point, []int64) {
	b.Helper()
	pts := dataset.Generate(dataset.IND, r.n, r.d, r.seed)
	f, err := os.Open(r.file)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var seq []int64
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" && line[0] != '#' {
			id, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				b.Fatal(err)
			}
			seq = append(seq, id)
		}
	}
	return buildTree(b, pts), pts[r.focalID], seq
}

// replay is one recorded query on a maintainer aimed at it: the first
// skyline, then every Expand.
func replay(b *testing.B, m interface {
	Skyline() ([]Record, error)
	Expand(int64) ([]Record, error)
}, seq []int64) {
	if _, err := m.Skyline(); err != nil {
		b.Fatal(err)
	}
	for _, id := range seq {
		if _, err := m.Expand(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpand replays the recorded queries on a warm Maintainer, as the
// engine's pooled state does. pops/op is the heap pops of one replay and
// searches/op its staircase binary searches (none at d = 4).
func BenchmarkExpand(b *testing.B) {
	for _, r := range expandReplays {
		b.Run(r.name, func(b *testing.B) {
			tree, focal, seq := r.load(b)
			m := new(Maintainer)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Reset(context.Background(), tree.Reader(nil), focal, r.focalID); err != nil {
					b.Fatal(err)
				}
				replay(b, m, seq)
			}
			b.ReportMetric(float64(m.pops), "pops/op")
			b.ReportMetric(float64(m.searches), "searches/op")
			b.ReportMetric(float64(m.Accessed()), "records/op")
		})
	}
}

// BenchmarkExpandReference is the same replay through the pre-rewrite
// maintainer (reference_test.go), for the before/after in one run.
func BenchmarkExpandReference(b *testing.B) {
	for _, r := range expandReplays {
		b.Run(r.name, func(b *testing.B) {
			tree, focal, seq := r.load(b)
			var m *refMaintainer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = refNewForQuery(context.Background(), tree.Reader(nil), focal, r.focalID); err != nil {
					b.Fatal(err)
				}
				replay(b, m, seq)
			}
			b.ReportMetric(float64(m.pops), "pops/op")
			b.ReportMetric(float64(m.Accessed()), "records/op")
		})
	}
}

package exp

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// cardinalities returns the n sweep for Figure 8 at the configured scale.
func (c *Config) cardinalities() []int {
	switch c.Scale {
	case ScaleQuick:
		return []int{500, 1000, 2000}
	case ScalePaper:
		return []int{100_000, 500_000, 1_000_000, 5_000_000, 10_000_000}
	default:
		return []int{1_000, 2_000, 5_000, 10_000}
	}
}

// baCap is the largest n BA is attempted on (the paper itself caps BA at
// 10K records, where it already needs hours).
func (c *Config) baCap() int {
	switch c.Scale {
	case ScaleQuick:
		return 500
	case ScalePaper:
		return 10_000
	default:
		return 1_000
	}
}

// Fig8 reproduces Figure 8: effect of dataset cardinality n at d = 4 —
// (a,b) AA vs BA on IND, (c,d) AA across IND/COR/ANTI, (e,f) k* and |T|.
func Fig8(cfg Config) error {
	cfg.defaults()
	out := cfg.Out
	const d = 4

	header(out, "Figure 8(a,b): AA vs BA, CPU and I/O vs n (IND, d=4)")
	t := newTable(out, "n", "AA CPU", "AA I/O", "BA CPU", "BA I/O")
	for _, n := range cfg.cardinalities() {
		ds, err := repro.GenerateDataset("IND", n, d, cfg.Seed)
		if err != nil {
			return err
		}
		aa, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.AA))
		if err != nil {
			return err
		}
		baCPU, baIO := "-", "-"
		if n <= cfg.baCap() {
			ba, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.BA))
			if err != nil {
				return err
			}
			baCPU = fmt.Sprintf("%.3fs", ba.CPU.Seconds())
			baIO = fmt.Sprintf("%.1f", ba.IO)
		}
		t.row(n, aa.CPU, aa.IO, baCPU, baIO)
	}
	t.flush()

	header(out, "Figure 8(c,d,e,f): AA across distributions, CPU/I/O/k*/|T| vs n (d=4)")
	t = newTable(out, "n", "dist", "CPU", "I/O", "k*", "|T|", "n_a")
	for _, n := range cfg.cardinalities() {
		for _, dist := range []string{"IND", "COR", "ANTI"} {
			ds, err := repro.GenerateDataset(dist, n, d, cfg.Seed)
			if err != nil {
				return err
			}
			m, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.AA))
			if err != nil {
				return err
			}
			t.row(n, dist, m.CPU, m.IO, m.KStar, m.Regions, m.NA)
		}
	}
	t.flush()
	return nil
}

// dimensions returns the d sweep for Figure 9 / Table 3.
func (c *Config) dimensions() (dims []int, n int) {
	switch c.Scale {
	case ScaleQuick:
		return []int{2, 3, 4}, 1000
	case ScalePaper:
		return []int{2, 3, 4, 5, 6, 7, 8}, 100_000
	default:
		return []int{2, 3, 4, 5}, 5_000
	}
}

// Fig9Table3 reproduces Figure 9 (CPU and I/O vs dimensionality, IND) and
// Table 3 (k* and |T| vs dimensionality).
func Fig9Table3(cfg Config) error {
	cfg.defaults()
	out := cfg.Out
	dims, n := cfg.dimensions()

	header(out, fmt.Sprintf("Figure 9 + Table 3: effect of dimensionality (IND, n=%d)", n))
	t := newTable(out, "d", "AA CPU", "AA I/O", "BA CPU", "BA I/O", "k*", "|T|")
	for _, d := range dims {
		ds, err := repro.GenerateDataset("IND", n, d, cfg.Seed)
		if err != nil {
			return err
		}
		aa, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.AA))
		if err != nil {
			return err
		}
		baCPU, baIO := "-", "-"
		if baN := cfg.baCap(); d <= 4 {
			baDS, err := repro.GenerateDataset("IND", min(n, baN), d, cfg.Seed)
			if err != nil {
				return err
			}
			ba, err := runQueries(baDS, &cfg, repro.WithAlgorithm(repro.BA))
			if err != nil {
				return err
			}
			baCPU = fmt.Sprintf("%.3fs (n=%d)", ba.CPU.Seconds(), baDS.Len())
			baIO = fmt.Sprintf("%.1f", ba.IO)
		}
		t.row(d, aa.CPU, aa.IO, baCPU, baIO, aa.KStar, aa.Regions)
	}
	t.flush()
	return nil
}

// realScale returns the cardinality scale factor for Table 4 proxies.
func (c *Config) realScale() float64 {
	switch c.Scale {
	case ScaleQuick:
		return 0.004
	case ScalePaper:
		return 1
	default:
		return 0.02
	}
}

// Table4 reproduces Table 4: AA on (proxies of) the five real datasets.
func Table4(cfg Config) error {
	cfg.defaults()
	out := cfg.Out
	header(out, "Table 4: AA on real-dataset proxies (see DESIGN.md §7)")
	t := newTable(out, "dataset", "d", "n", "k*", "|T|", "CPU", "I/O")
	for _, rp := range dataset.RealProxies(cfg.realScale()) {
		pts := rp.Generate(cfg.Seed)
		ds, err := newDatasetFromPoints(pts)
		if err != nil {
			return err
		}
		m, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.AA))
		if err != nil {
			return err
		}
		t.row(rp.Name, rp.Dim, rp.N, m.KStar, m.Regions, m.CPU, m.IO)
	}
	t.flush()
	return nil
}

// Fig10 reproduces Figure 10: iMaxRank cost and |T| versus τ on the HOTEL
// proxy and IND.
func Fig10(cfg Config) error {
	cfg.defaults()
	out := cfg.Out
	taus := []int{0, 1, 2, 3, 4, 5}
	indN := 5_000
	if cfg.Scale == ScaleQuick {
		indN = 1000
	} else if cfg.Scale == ScalePaper {
		indN = 100_000
	}

	indDS, err := repro.GenerateDataset("IND", indN, 4, cfg.Seed)
	if err != nil {
		return err
	}
	hotel, err := dataset.RealProxyByName("HOTEL", cfg.realScale())
	if err != nil {
		return err
	}
	hotelDS, err := newDatasetFromPoints(hotel.Generate(cfg.Seed))
	if err != nil {
		return err
	}

	header(out, fmt.Sprintf("Figure 10: iMaxRank, effect of tau (IND n=%d d=4; HOTEL proxy n=%d)", indN, hotelDS.Len()))
	t := newTable(out, "tau", "dataset", "CPU", "I/O", "|T|")
	for _, tau := range taus {
		for _, pair := range []struct {
			name string
			ds   *repro.Dataset
		}{{"IND", indDS}, {"HOTEL", hotelDS}} {
			m, err := runQueries(pair.ds, &cfg, repro.WithAlgorithm(repro.AA), repro.WithTau(tau))
			if err != nil {
				return err
			}
			t.row(tau, pair.name, m.CPU, m.IO, m.Regions)
		}
	}
	t.flush()
	return nil
}

// Fig11 reproduces Figure 11: FCA versus the 2-d AA on the three synthetic
// distributions.
func Fig11(cfg Config) error {
	cfg.defaults()
	out := cfg.Out
	n := 100_000
	switch cfg.Scale {
	case ScaleQuick:
		n = 5_000
	case ScaleDefault:
		n = 100_000
	}

	header(out, fmt.Sprintf("Figure 11: FCA vs AA at d=2 (n=%d)", n))
	// Milliseconds: at d = 2 both answer in a few, below the tables'
	// seconds format.
	ms := func(m Metrics) float64 { return float64(m.CPU.Microseconds()) / 1000 }
	t := newTable(out, "dist", "AA ms", "AA I/O", "AA n_a", "FCA ms", "FCA I/O", "FCA n_a")
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		ds, err := repro.GenerateDataset(dist, n, 2, cfg.Seed)
		if err != nil {
			return err
		}
		aa, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.AA))
		if err != nil {
			return err
		}
		fca, err := runQueries(ds, &cfg, repro.WithAlgorithm(repro.FCA))
		if err != nil {
			return err
		}
		t.row(dist, ms(aa), aa.IO, aa.NA, ms(fca), fca.IO, fca.NA)
	}
	t.flush()
	return nil
}

// Fig12 reproduces the appendix experiment (Figure 12): the ratio of the
// highest to the lowest score in an IND dataset as d grows — the
// dimensionality-curse argument for focusing on low d.
func Fig12(cfg Config) error {
	cfg.defaults()
	out := cfg.Out
	n := 100_000
	if cfg.Scale == ScaleQuick {
		n = 10_000
	}
	header(out, fmt.Sprintf("Figure 12: MaxScore/MinScore vs d (IND, n=%d)", n))
	t := newTable(out, "d", "MaxScore/MinScore")
	rng := rand.New(rand.NewSource(cfg.Seed))
	for d := 2; d <= 20; d++ {
		pts := dataset.Generate(dataset.IND, n, d, cfg.Seed+int64(d))
		// Random permissible query vector.
		q := make(vecmath.Point, d)
		var sum float64
		for i := range q {
			q[i] = rng.Float64() + 1e-9
			sum += q[i]
		}
		for i := range q {
			q[i] /= sum
		}
		maxS, minS := pts[0].Dot(q), pts[0].Dot(q)
		for _, p := range pts[1:] {
			s := p.Dot(q)
			if s > maxS {
				maxS = s
			}
			if s < minS {
				minS = s
			}
		}
		t.row(d, maxS/minS)
	}
	t.flush()
	return nil
}

// newDatasetFromPoints adapts internal points to the public constructor.
func newDatasetFromPoints(pts []vecmath.Point) (*repro.Dataset, error) {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	return repro.NewDataset(rows)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

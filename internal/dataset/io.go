package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/vecmath"
)

// WriteCSV emits records as comma-separated rows.
func WriteCSV(w io.Writer, pts []vecmath.Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		for i, v := range p {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses comma-separated rows into records. Blank lines and lines
// starting with '#' are skipped. All rows must share one dimensionality.
func ReadCSV(r io.Reader) ([]vecmath.Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pts []vecmath.Point
	dim := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if dim < 0 {
			dim = len(fields)
		} else if len(fields) != dim {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), dim)
		}
		p := make(vecmath.Point, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", line, i+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("dataset: no records found")
	}
	return pts, nil
}

// Normalize rescales every attribute to [0,1] via min-max normalisation
// (constant attributes map to 0.5). MaxRank does not require it, but it
// keeps datasets on the conventional domain.
func Normalize(pts []vecmath.Point) {
	if len(pts) == 0 {
		return
	}
	lo, hi := vecmath.MinMax(pts)
	for _, p := range pts {
		for i := range p {
			span := hi[i] - lo[i]
			if span <= 0 {
				p[i] = 0.5
			} else {
				p[i] = (p[i] - lo[i]) / span
			}
		}
	}
}

// ReadCSVFile loads a CSV dataset from a file as rows ready for
// repro.NewDataset, optionally min-max normalising the attributes. It is
// the one loading path shared by the CLIs (maxrank, its snapshot
// subcommands, maxrankd).
func ReadCSVFile(path string, normalize bool) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pts, err := ReadCSV(f)
	if err != nil {
		return nil, err
	}
	if normalize {
		Normalize(pts)
	}
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	return rows, nil
}

// Flatten packs records into one row-major float64 slice (the layout the
// snapshot format stores). All records must share one dimensionality.
func Flatten(pts []vecmath.Point) []float64 {
	if len(pts) == 0 {
		return nil
	}
	dim := len(pts[0])
	out := make([]float64, 0, len(pts)*dim)
	for _, p := range pts {
		out = append(out, p...)
	}
	return out
}

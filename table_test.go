package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// fingerprintReference is the content digest as Fingerprint has always
// defined it, one value at a time: the dimensionality, then every
// coordinate in record order, each as a little-endian 8-byte word.
func fingerprintReference(dim int, rows [][]float64) string {
	h := sha256.New()
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(dim))
	h.Write(w[:])
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkTable holds a record table to its invariants: starts count the
// records before each chunk, every chunk holds 1..chunkCap records, no two
// neighbours fit in one chunk, and tree IDs ascend across chunks.
func checkTable(t *testing.T, tab *table) {
	t.Helper()
	n, last := 0, int64(-1)
	for k, c := range tab.chunks {
		if tab.starts[k] != n {
			t.Fatalf("chunk %d starts at %d, after %d records", k, tab.starts[k], n)
		}
		if len(c.ids) == 0 || len(c.ids) > chunkCap || len(c.coords) != len(c.ids)*tab.dim {
			t.Fatalf("chunk %d holds %d IDs and %d values", k, len(c.ids), len(c.coords))
		}
		if k > 0 && len(tab.chunks[k-1].ids)+len(c.ids) <= chunkCap {
			t.Fatalf("chunks %d and %d hold %d and %d records: they fit in one", k-1, k, len(tab.chunks[k-1].ids), len(c.ids))
		}
		for _, id := range c.ids {
			if id <= last {
				t.Fatalf("chunk %d: tree ID %d after %d", k, id, last)
			}
			last = id
		}
		n += len(c.ids)
	}
	if n != tab.n || len(tab.starts) != len(tab.chunks) {
		t.Fatalf("table counts %d records in %d chunks (%d starts), holds %d", tab.n, len(tab.chunks), len(tab.starts), n)
	}
}

// checkAgainstModel compares a dataset with the rows it should hold:
// Len, every Point, the table's invariants, Fingerprint against the
// per-value reference, RankOf against a direct count, and an FCA query's
// outrank IDs, which come out of the tree as tree IDs and must name
// records that outrank the focal record.
func checkAgainstModel(t *testing.T, label string, ds *Dataset, rows [][]float64, rng *rand.Rand) {
	t.Helper()
	if ds.Len() != len(rows) {
		t.Fatalf("%s: Len %d, model %d", label, ds.Len(), len(rows))
	}
	checkTable(t, &ds.tab)
	best := 0
	for i, want := range rows {
		got, err := ds.Point(i)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: Point(%d) = %v, %v; model %v", label, i, got, err, want)
		}
		if want[0]+want[1] > rows[best][0]+rows[best][1] {
			best = i
		}
	}
	if got, want := ds.Fingerprint(), fingerprintReference(2, rows); got != want {
		t.Fatalf("%s: fingerprint %s, reference %s", label, got, want)
	}
	for k := 0; k < 3; k++ {
		rec := rows[rng.Intn(len(rows))]
		q := []float64{rng.Float64(), 0}
		q[1] = 1 - q[0]
		want := 1
		for _, r := range rows {
			if r[0]*q[0]+r[1]*q[1] > rec[0]*q[0]+rec[1]*q[1] {
				want++
			}
		}
		if got, err := ds.RankOf(rec, q); err != nil || got != want {
			t.Fatalf("%s: RankOf(%v, %v) = %d, %v; model %d", label, rec, q, got, err, want)
		}
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), best, WithAlgorithm(FCA), WithOutrankIDs(true))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := Validate(ds, best, res); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, reg := range res.Regions {
		q, p := reg.QueryVector, rows[best]
		for _, id := range reg.OutrankIDs {
			r := rows[id]
			if r[0]*q[0]+r[1]*q[1] <= p[0]*q[0]+p[1]*q[1] {
				t.Fatalf("%s: outrank ID %d does not outrank focal %d at %v", label, id, best, q)
			}
		}
	}
}

// tableBatch draws one batch of kind kind%6 on ds, which holds rows:
// 0 deletes a whole chunk, 1 the first and last record of a chunk, 2
// spills inserts past the tail chunk, 3 continues from ds mapped from a
// snapshot (and returns that parent), 4 mixes random deletes and inserts,
// some duplicating a record, and 5 deletes a run across chunk edges.
func tableBatch(t *testing.T, rng *rand.Rand, ds *Dataset, rows [][]float64, kind, arg byte) (*Dataset, []Op) {
	tab := &ds.tab
	k := int(arg) % len(tab.chunks)
	lo, hi := tab.starts[k], tab.starts[k]+len(tab.chunks[k].ids)
	dels := map[int]bool{}
	inserts := 1 + int(arg)%4
	switch kind % 6 {
	case 0:
		for i := lo; i < hi; i++ {
			dels[i] = true
		}
	case 1:
		dels[lo], dels[hi-1] = true, true
	case 2:
		last := tab.chunks[len(tab.chunks)-1]
		inserts = chunkCap - len(last.ids) + 1 + int(arg)%300
	case 3:
		path := filepath.Join(t.TempDir(), "parent.snap")
		if err := ds.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		m, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if m.Storage().Mode != StorageMmap {
			t.Fatalf("reloaded parent is %s", m.Storage().Mode)
		}
		ds = m
		for range 1 + int(arg)%8 {
			dels[rng.Intn(len(rows))] = true
		}
	case 4:
		for range int(arg) % 40 {
			dels[rng.Intn(len(rows))] = true
		}
		inserts = int(arg) % 37
	case 5:
		from := rng.Intn(len(rows))
		for i := from; i < min(len(rows), from+int(arg)%600+1); i++ {
			dels[i] = true
		}
	}
	var ops []Op
	for i := range dels {
		ops = append(ops, DeleteOp(i))
	}
	for range inserts {
		p := []float64{rng.Float64(), rng.Float64()}
		if rng.Intn(4) == 0 {
			p = slices.Clone(rows[rng.Intn(len(rows))])
		}
		ops = append(ops, InsertOp(p))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ds, ops
}

// applyModel applies a valid batch to rows as Apply defines it: the
// survivors in order, then the inserts in op order.
func applyModel(rows [][]float64, ops []Op) [][]float64 {
	dels := map[int]bool{}
	for _, op := range ops {
		if op.Kind == OpDelete {
			dels[op.Index] = true
		}
	}
	var out [][]float64
	for i, r := range rows {
		if !dels[i] {
			out = append(out, r)
		}
	}
	for _, op := range ops {
		if op.Kind == OpInsert {
			out = append(out, slices.Clone(op.Point))
		}
	}
	return out
}

// FuzzApplyRecordTable decodes a dataset of up to 2 000 IND records at d = 2
// (several chunks) and up to eight batches of the kinds tableBatch draws:
// emptied chunks, deletes at chunk edges, inserts spilling into a new
// chunk, a mapped parent, random churn and runs across chunks. After every
// batch the successor must agree with a plain [][]float64 model (see
// checkAgainstModel), and the parent must still agree with its own.
func FuzzApplyRecordTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(binary.LittleEndian.Uint16(data))%2000
		rng := rand.New(rand.NewSource(int64(data[2])))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64(), rng.Float64()}
		}
		ds, err := NewDataset(rows)
		if err != nil {
			t.Fatal(err)
		}
		script := data[3:min(len(data), 3+2*8)]
		for b := 0; b+1 < len(script); b += 2 {
			label := fmt.Sprintf("batch %d (kind %d, arg %d)", b/2, script[b]%6, script[b+1])
			parent, ops := tableBatch(t, rng, ds, rows, script[b], script[b+1])
			if len(ops) == 0 {
				continue
			}
			next, err := parent.Apply(ops)
			want := applyModel(rows, ops)
			if len(want) == 0 {
				if err == nil {
					t.Fatalf("%s: a batch emptying the dataset was accepted", label)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkAgainstModel(t, label, next, want, rng)
			checkAgainstModel(t, label+" parent", parent, rows, rng)
			ds, rows = next, want
		}
	})
}

// TestApplyFingerprintConcurrent reads a successor's fingerprint while its
// hash is still running: as soon as Apply returns, G goroutines and the
// test's own call Fingerprint, others query the successor, and one applies
// a batch to it. Every caller must see the reference value, on the
// successor and on its own successor; run it under -race. At n = 200 000
// the hash takes several times as long as a two-op Apply, and the
// references are worked out before Apply, so the callers arrive while the
// goroutine Apply started is hashing.
func TestApplyFingerprintConcurrent(t *testing.T) {
	const n, g = 200000, 4
	rng := rand.New(rand.NewSource(43))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64()}
	}
	ds, err := NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		ops := []Op{DeleteOp(rng.Intn(len(rows))), InsertOp([]float64{rng.Float64(), rng.Float64()})}
		ops2 := []Op{DeleteOp(0), InsertOp([]float64{0.5, 0.5})}
		want := applyModel(rows, ops)
		fp, fp2 := fingerprintReference(2, want), fingerprintReference(2, applyModel(want, ops2))
		next, err := ds.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2*g+2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			after, err := next.Apply(ops2)
			if err != nil {
				errs <- err
				return
			}
			if got := after.Fingerprint(); got != fp2 {
				errs <- fmt.Errorf("round %d: successor's successor fingerprint %q, reference %s", round, got, fp2)
			}
		}()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng, err := NewEngine(next)
				if err == nil {
					_, err = eng.Query(ctx, (w*7919)%n, WithAlgorithm(FCA))
				}
				if err != nil {
					errs <- err
				}
			}()
		}
		check := func() {
			if got := next.Fingerprint(); got != fp {
				errs <- fmt.Errorf("round %d: Fingerprint %q, reference %s", round, got, fp)
			}
		}
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check()
			}()
		}
		check()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		ds, rows = next, want
	}
}

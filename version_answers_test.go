package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAnswersMatchTheirVersion: four goroutines query whichever
// engine is current while this one applies 20 batches — deletes, fresh
// inserts, inserts duplicating a record, deletes re-inserted at the same
// point — to IND n = 300, at d = 2 and d = 3, from a heap start and from a
// mapped one. Each version's snapshot is written when the version is
// published. Every answer must equal, Stats.IO and outrank IDs included,
// the answer a heap dataset loaded from its version's snapshot gives, and
// after the run every version must still answer as that reference does: no
// batch may reach a node or page a published version reads.
func TestConcurrentAnswersMatchTheirVersion(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, mapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/mapped=%v", dim, mapped), func(t *testing.T) {
				ds, err := GenerateDataset("IND", 300, dim, int64(dim))
				if err != nil {
					t.Fatal(err)
				}
				if mapped {
					ds = reloadMapped(t, ds, filepath.Join(t.TempDir(), "start.snap"))
				}
				checkAnswersMatchTheirVersion(t, ds)
			})
		}
	}
}

// versionAnswer is one query a goroutine answered on version v.
type versionAnswer struct {
	v, focal int
	res      *Result
}

func checkAnswersMatchTheirVersion(t *testing.T, ds *Dataset) {
	ctx := context.Background()
	query := func(e *Engine, focal int) (*Result, error) {
		res, err := e.Query(ctx, focal, WithOutrankIDs(true))
		if err == nil {
			res.Stats.CPUTime = 0
		}
		return res, err
	}
	snapshotOf := func(e *Engine) []byte {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		engines  = []*Engine{eng}
		snaps    = [][]byte{snapshotOf(eng)}
		answers  []versionAnswer
		answered = []int{0}
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				v := len(engines) - 1
				e := engines[v]
				mu.Unlock()
				focal := rng.Intn(e.Dataset().Len())
				res, err := query(e, focal)
				if err != nil {
					t.Errorf("version %d focal %d: %v", v, focal, err)
					return
				}
				mu.Lock()
				answers = append(answers, versionAnswer{v, focal, res})
				answered[v]++
				mu.Unlock()
			}
		}(w)
	}

	// reached waits until the queries have answered four times on the
	// newest version, so that every version is read while it is current.
	reached := func() {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			mu.Lock()
			k := answered[len(answered)-1]
			mu.Unlock()
			if k >= 4 {
				return
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(ds.Dim())))
	for b := 1; b <= 20; b++ {
		reached()
		cur := engines[len(engines)-1]
		n := cur.Dataset().Len()
		var ops []Op
		for _, i := range rng.Perm(n)[:1+rng.Intn(8)] {
			ops = append(ops, DeleteOp(i))
			if rng.Intn(3) == 0 { // re-inserted at the same point
				ops = append(ops, InsertOp(append([]float64(nil), cur.Dataset().tab.row(i)...)))
			}
		}
		for k := rng.Intn(8); k >= 0; k-- {
			p := make([]float64, ds.Dim())
			if k%3 == 0 { // a duplicate of a current record
				copy(p, cur.Dataset().tab.row(rng.Intn(n)))
			} else {
				for j := range p {
					p[j] = rng.Float64()
				}
			}
			ops = append(ops, InsertOp(p))
		}
		next, err := cur.Apply(ctx, ops)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		snap := snapshotOf(next)
		mu.Lock()
		engines, snaps, answered = append(engines, next), append(snaps, snap), append(answered, 0)
		mu.Unlock()
	}
	reached()
	close(stop)
	wg.Wait()

	refs := make([]*Engine, len(snaps))
	for v, snap := range snaps {
		ref, err := LoadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if refs[v], err = NewEngine(ref); err != nil {
			t.Fatal(err)
		}
	}
	same := func(label string, v, focal int, got *Result) {
		t.Helper()
		want, err := query(refs[v], focal)
		if err != nil {
			t.Fatalf("%s: version %d focal %d on its snapshot: %v", label, v, focal, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: version %d focal %d answered\n%+v\nits snapshot answers\n%+v", label, v, focal, got, want)
		}
	}
	for v, k := range answered {
		if k == 0 {
			t.Fatalf("version %d was never queried during the run", v)
		}
	}
	for _, a := range answers {
		same("during the run", a.v, a.focal, a.res)
	}
	for v, e := range engines {
		for _, focal := range []int{0, e.Dataset().Len() / 2, e.Dataset().Len() - 1} {
			got, err := query(e, focal)
			if err != nil {
				t.Fatal(err)
			}
			same("after the run", v, focal, got)
		}
	}
	t.Logf("%d answers over %d versions", len(answers), len(engines))
}

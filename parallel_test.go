// Tests for intra-query parallelism (WithQueryParallelism): the parallel
// cell-processing core must reproduce the sequential answer bit for bit,
// honour cancellation mid-expansion, and keep per-query I/O attribution
// exact while its workers share one tracker.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro"
)

// queryParallelCase is one (distribution, dimensionality, algorithm) cell
// of the equality matrix. d = 2 exercises FCA and the AA2D specialisation
// (AA dispatches to it); d = 3 exercises BA and the general AA.
type queryParallelCase struct {
	dist string
	n    int
	d    int
	alg  repro.Algorithm
	tau  int
}

// TestQueryParallelismMatchesSequential is the tentpole acceptance check:
// for every algorithm on every benchmark distribution, a query fanned out
// over 8 intra-query workers must be bit-identical to the sequential run —
// same regions (witnesses, boxes, constraints), same ranks, and exactly
// the same Stats.IO, since all I/O phases (dominator counting, the
// incomparable scan, skyline expansion) are deterministic and the workers
// charge one shared per-query tracker. Only CPU time and the
// scheduling-dependent work counters (LPCalls, LeavesProcessed,
// LeavesPruned) may differ; answerOf zeroes those before comparing.
func TestQueryParallelismMatchesSequential(t *testing.T) {
	var cases []queryParallelCase
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		for _, tau := range []int{0, 2} {
			cases = append(cases,
				queryParallelCase{dist, 3000, 2, repro.FCA, tau},
				queryParallelCase{dist, 3000, 2, repro.AA, tau}, // d=2: the AA2D specialisation
				queryParallelCase{dist, 1200, 3, repro.BA, tau},
				queryParallelCase{dist, 1200, 3, repro.AA, tau},
			)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/d=%d/%v/tau=%d", tc.dist, tc.d, tc.alg, tc.tau), func(t *testing.T) {
			t.Parallel()
			ds, err := repro.GenerateDataset(tc.dist, tc.n, tc.d, 3)
			if err != nil {
				t.Fatal(err)
			}
			seqEng, err := repro.NewEngine(ds, repro.WithQueryParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			parEng, err := repro.NewEngine(ds, repro.WithQueryParallelism(8))
			if err != nil {
				t.Fatal(err)
			}
			if got := parEng.QueryParallelism(); got != 8 {
				t.Fatalf("QueryParallelism() = %d, want 8", got)
			}
			ctx := context.Background()
			opts := []repro.Option{
				repro.WithAlgorithm(tc.alg),
				repro.WithTau(tc.tau),
				repro.WithOutrankIDs(true),
			}
			for q := 0; q < 4; q++ {
				focal := (q*797 + 13) % ds.Len()
				seq, err := seqEng.Query(ctx, focal, opts...)
				if err != nil {
					t.Fatalf("sequential focal %d: %v", focal, err)
				}
				par, err := parEng.Query(ctx, focal, opts...)
				if err != nil {
					t.Fatalf("parallel focal %d: %v", focal, err)
				}
				if !reflect.DeepEqual(answerOf(par), answerOf(seq)) {
					t.Fatalf("focal %d: parallel result differs from sequential\n par: %+v\n seq: %+v", focal, par, seq)
				}
				if err := repro.Validate(ds, focal, par); err != nil {
					t.Fatalf("focal %d: %v", focal, err)
				}
			}
		})
	}
}

// TestQueryParallelCancellationMidExpansion cancels a parallel AA query
// while its expansion iterations are in flight: the workers must observe
// the cancellation at the next claimed leaf and the query must return
// ctx.Err() long before the uncancelled runtime. Page latency makes the
// query deterministically slow, exactly like the sequential cancellation
// test.
func TestQueryParallelCancellationMidExpansion(t *testing.T) {
	slow, err := repro.GenerateDataset("IND", 2000, 3, 42, repro.WithPageLatency(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(slow, repro.WithQueryParallelism(8))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled: the parallel path must fail before spawning workers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Query(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled parallel query returned %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.Query(ctx, 17)
		done <- err
	}()
	time.AfterFunc(50*time.Millisecond, cancel)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled parallel query returned %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %v, want prompt return", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled parallel query never returned")
	}
}

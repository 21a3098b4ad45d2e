package repro

import (
	"context"
	"reflect"
	"testing"
)

// TestQueryOptsEquivalence: the struct-form entry points (QueryOpts,
// QueryPointOpts, QueryBatchOpts) are thin adapters over the same
// resolution path as the functional With* options — every pair must
// produce identical results, whatever the option combination.
func TestQueryOptsEquivalence(t *testing.T) {
	ds, err := GenerateDataset("IND", 300, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cases := []struct {
		name string
		opts []Option
		s    QueryOptions
	}{
		{"zero", nil, QueryOptions{}},
		{"tau", []Option{WithTau(2)}, QueryOptions{Tau: 2}},
		{"alg+ids", []Option{WithAlgorithm(AA), WithOutrankIDs(true)}, QueryOptions{Algorithm: AA, OutrankIDs: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := eng.Query(ctx, 5, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.QueryOpts(ctx, 5, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(want, got) {
				t.Errorf("QueryOpts diverges from Query(With*): %+v vs %+v", got, want)
			}

			point, err := ds.Point(9)
			if err != nil {
				t.Fatal(err)
			}
			wantP, err := eng.QueryPoint(ctx, point, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotP, err := eng.QueryPointOpts(ctx, point, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(wantP, gotP) {
				t.Errorf("QueryPointOpts diverges from QueryPoint(With*)")
			}

			focals := []int{1, 4, 9, 25}
			wantB, err := eng.QueryBatch(ctx, focals, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := eng.QueryBatchOpts(ctx, focals, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantB) != len(gotB) {
				t.Fatalf("batch lengths differ: %d vs %d", len(gotB), len(wantB))
			}
			for i := range wantB {
				if !sameAnswer(wantB[i], gotB[i]) {
					t.Errorf("QueryBatchOpts[%d] diverges from QueryBatch(With*)", i)
				}
			}
		})
	}
}

// sameAnswer compares the query answer while ignoring the run-varying
// execution counters (CPU time, cache flag).
func sameAnswer(a, b *Result) bool {
	if a.KStar != b.KStar || a.Dominators != b.Dominators || a.MinOrder != b.MinOrder {
		return false
	}
	return reflect.DeepEqual(a.Regions, b.Regions)
}

package repro

import "repro/internal/vecmath"

// TopK returns the indices of the k records with the highest scores under
// the full d-dimensional query vector q, best first — the query model the
// MaxRank paper is defined against, answered by branch-and-bound over the
// R*-tree without scanning the dataset.
func (ds *Dataset) TopK(q []float64, k int) ([]int64, error) {
	items, err := ds.tree.Reader(nil).TopK(vecmath.Point(q), k)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.RecordID
	}
	ds.toRecordIndexes(out)
	return out, nil
}

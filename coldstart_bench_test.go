package repro_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro"
)

// BenchmarkColdStart measures time-to-serving from a snapshot file: the
// full LoadSnapshotFile call, dataset ready to answer queries, through the
// two modes of the one loader. heap verifies everything (file CRC,
// fingerprint re-hash) and copies points and pages once; mmap serves the
// file zero-copy after header/directory/points validation. At PR 24's
// parent, 2 cores, n = 100 000 d = 4: heap 54 ms and 78 MB allocated (two
// copies through DecodeV2), mmap 2.3 ms; a v1 file of the same content
// took 42 ms.
func BenchmarkColdStart(b *testing.B) {
	for _, size := range []struct{ n, dim int }{{20000, 3}, {100000, 4}} {
		ds, err := repro.GenerateDataset("IND", size.n, size.dim, 3)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "ds.snap")
		if err := ds.WriteSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
		tag := fmt.Sprintf("n%d_d%d", size.n, size.dim)
		for _, mode := range []struct {
			name string
			mmap bool
		}{{"heap", false}, {"mmap", true}} {
			b.Run(mode.name+"/"+tag, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					loaded, err := repro.LoadSnapshotFile(path, repro.WithMmap(mode.mmap))
					if err != nil {
						b.Fatal(err)
					}
					loaded.Close()
				}
			})
		}
	}
}

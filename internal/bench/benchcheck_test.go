package bench

import (
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
)

// TestBenchCheck is the storage-layout gate behind make bench-check.
// It builds the Sec. 6 corpus at 4,000 articles (seed 2002, 8 KB pages,
// 32 MB pool) and pins what the compressed layout must keep:
//
//   - index bytes on disk at most 70% of what the same corpus took with
//     one uncompressed index cell per posting (3,874,816 bytes), the
//     30% reduction floor the layout was adopted under;
//   - the streaming GROUPBY results of E1 and E2, byte-identical to the
//     uncompressed layout's (serialized-tree hashes);
//   - the executor's deterministic ExecStats for both queries.
func TestBenchCheck(t *testing.T) {
	const (
		uncompressedIndexBytes = 3_874_816
		maxIndexBytes          = uncompressedIndexBytes * 70 / 100
	)
	db, err := SetupDB(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 4000, Seed: 2002}); err != nil {
		t.Fatal(err)
	}
	info, err := db.SizeInfo()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("index %d bytes, total %d bytes", info.IndexBytes, info.TotalBytes)
	if info.IndexBytes > maxIndexBytes {
		t.Errorf("index bytes on disk = %d, want <= %d (30%% below the uncompressed %d)",
			info.IndexBytes, maxIndexBytes, uncompressedIndexBytes)
	}

	for _, tc := range []struct {
		name, text string
		hash       string
		stats      exec.ExecStats
	}{
		{"e1", Query1Text, "b254d8bad7f02dd3", exec.ExecStats{IndexPostings: 17517, ValueLookups: 19034, Groups: 957}},
		{"e2", QueryCountText, "2880e7f68d1d7610", exec.ExecStats{IndexPostings: 17517, ValueLookups: 9517, Groups: 957}},
	} {
		q, err := BuildQuery(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		spec := q.Spec
		spec.Strategy = exec.StrategyGroupBy
		res, err := exec.Run(db, spec, exec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hashTrees(res.Trees); got != tc.hash {
			t.Errorf("%s: result hash %s, want %s", tc.name, got, tc.hash)
		}
		if res.Stats != tc.stats {
			t.Errorf("%s: stats %+v, want %+v", tc.name, res.Stats, tc.stats)
		}
	}
}

package bench

import "testing"

// TestWindowStoreModesRecoverIdenticalState runs the same window workload
// with the state-store performance layer off (write-through baseline) and on
// (LRU cache + commit-scoped batching) and requires the changelog-restored
// state to be byte-identical: the layer may only change how fast state gets
// there, never what a restarted task recovers.
func TestWindowStoreModesRecoverIdenticalState(t *testing.T) {
	cfg := DefaultWindowStoreConfig()
	cfg.Tuples = 5000
	cfg.Keys = 20
	cfg.CommitEvery = 1000    // four 256-row blocks per commit
	cfg.WindowMillis = 10_000 // 1000-tuple window at the 10ms tuple spacing

	baseline, err := RunWindowStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuned := cfg
	tuned.StoreCacheSize = 64
	tuned.WriteBatchSize = 100
	cached, err := RunWindowStore(tuned)
	if err != nil {
		t.Fatal(err)
	}

	if baseline.RestoredKeys == 0 {
		t.Fatal("baseline run restored no keys from the changelog")
	}
	if cached.RestoredKeys != baseline.RestoredKeys {
		t.Fatalf("restored key counts differ: cached %d, baseline %d",
			cached.RestoredKeys, baseline.RestoredKeys)
	}
	if cached.StateDigest != baseline.StateDigest {
		t.Fatalf("restored state digests differ: cached %s, baseline %s",
			cached.StateDigest, baseline.StateDigest)
	}
	if cached.CacheHits == 0 {
		t.Fatal("cached run recorded no cache hits")
	}
	// Dedup must show on the changelog: the cached run writes each window
	// state row once per commit interval instead of once per block.
	if cached.ChangelogRecords >= baseline.ChangelogRecords {
		t.Fatalf("cached run wrote %d changelog records, baseline %d; batching should dedup",
			cached.ChangelogRecords, baseline.ChangelogRecords)
	}
}

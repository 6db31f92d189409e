package pagestore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// stampPage writes a recognizable pattern derived from the page ID so
// readers can verify they got the right bytes.
func stampPage(data []byte, id PageID) {
	binary.LittleEndian.PutUint32(data[0:], uint32(id))
	binary.LittleEndian.PutUint32(data[4:], ^uint32(id))
}

func checkStamp(data []byte, id PageID) bool {
	return binary.LittleEndian.Uint32(data[0:]) == uint32(id) &&
		binary.LittleEndian.Uint32(data[4:]) == ^uint32(id)
}

// TestShardedOracle drives a sharded store (a 3-shard pool) and a
// single-lock store (a pool under two shards' worth of frames) through
// the same randomized operation sequence and checks they behave
// identically where the policy is shared: same page contents at every
// fetch, same logical counters (fetches, allocations), and sane
// eviction accounting (hits + physical reads = fetches; every evicted
// page is recoverable from disk). The runs allocate several times
// either pool's capacity and rarely drop the cache, so both evict.
func TestShardedOracle(t *testing.T) {
	var evicted [2]uint64 // sharded, single: summed over all runs
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sharded, err := CreateTemp(Options{PageSize: 128, PoolPages: 3 * minShardFrames})
		if err != nil {
			return false
		}
		defer sharded.Close()
		single, err := CreateTemp(Options{PageSize: 128, PoolPages: minShardFrames + 5})
		if err != nil {
			return false
		}
		defer single.Close()
		if len(sharded.shards) != 3 || len(single.shards) != 1 {
			return false
		}

		stores := []*Store{sharded, single}
		content := map[PageID]byte{} // shared oracle of page payloads
		for op := 0; op < 2500; op++ {
			switch r := rng.Intn(1000); {
			case r < 300 || len(content) == 0: // allocate on both
				v := byte(rng.Intn(256))
				var id PageID
				for i, st := range stores {
					p, err := st.Allocate()
					if err != nil {
						return false
					}
					stampPage(p.Data(), p.ID())
					p.Data()[100] = v
					if i == 0 {
						id = p.ID()
					} else if p.ID() != id {
						return false // diverging page IDs
					}
					st.Unpin(p, true)
				}
				content[id] = v
			case r < 800: // fetch and verify on both, maybe rewrite
				id := PageID(rng.Intn(int(sharded.NumPages())))
				rewrite := rng.Intn(2) == 0
				v := byte(rng.Intn(256))
				for _, st := range stores {
					p, err := st.Fetch(id)
					if err != nil {
						return false
					}
					if !checkStamp(p.Data(), id) || p.Data()[100] != content[id] {
						st.Unpin(p, false)
						return false
					}
					if rewrite {
						p.Data()[100] = v
					}
					st.Unpin(p, rewrite)
				}
				if rewrite {
					content[id] = v
				}
			case r < 802:
				for _, st := range stores {
					if err := st.DropCache(); err != nil {
						return false
					}
				}
			default:
				for _, st := range stores {
					if err := st.Flush(); err != nil {
						return false
					}
				}
			}
		}
		// Logical counters must be identical; physical behaviour must
		// satisfy the accounting identities on both stores.
		a, b := sharded.Stats(), single.Stats()
		if a.Fetches != b.Fetches || a.Allocations != b.Allocations {
			return false
		}
		for i, s := range []Stats{a, b} {
			if s.Hits+s.PhysicalReads != s.Fetches {
				return false
			}
			if s.Evictions > s.Fetches+s.Allocations {
				return false
			}
			evicted[i] += s.Evictions
		}
		// Final contents identical.
		for id, v := range content {
			for _, st := range stores {
				p, err := st.Fetch(id)
				if err != nil {
					return false
				}
				ok := checkStamp(p.Data(), id) && p.Data()[100] == v
				st.Unpin(p, false)
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	if evicted[0] == 0 || evicted[1] == 0 {
		t.Errorf("evictions sharded=%d single=%d, want both > 0", evicted[0], evicted[1])
	}
}

// TestShardCapacityPartition checks the derived shard count
// max(1, min(16, PoolPages/64)) and that shard capacities sum to
// PoolPages, each holding at least min(PoolPages, 64) frames.
func TestShardCapacityPartition(t *testing.T) {
	for _, tc := range []struct{ pool, shards int }{
		{1, 1}, {2, 1}, {32, 1}, {127, 1}, {128, 2}, {200, 3},
		{991, 15}, {1024, 16}, {1087, 16}, {4096, 16},
	} {
		st := tempStore(t, Options{PageSize: 128, PoolPages: tc.pool})
		if len(st.shards) != tc.shards {
			t.Errorf("pool=%d: %d shards, want %d", tc.pool, len(st.shards), tc.shards)
		}
		sum := 0
		for i := range st.shards {
			if c := st.shards[i].cap; c < min(tc.pool, minShardFrames) {
				t.Errorf("pool=%d: shard %d holds %d frames", tc.pool, i, c)
			}
			sum += st.shards[i].cap
		}
		if sum != tc.pool {
			t.Errorf("pool=%d: capacities sum to %d", tc.pool, sum)
		}
	}
}

// TestConcurrentReadersStress hammers a small sharded pool from many
// goroutines (run under -race by the Makefile's check target): every
// fetch must observe the page's stamped contents even while other
// goroutines force evictions, and the counters must balance afterwards.
func TestConcurrentReadersStress(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 2 * minShardFrames})
	const npages = 8 * minShardFrames
	for i := 0; i < npages; i++ {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(p.Data(), p.ID())
		st.Unpin(p, true)
	}

	const goroutines = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPer; i++ {
				id := PageID(rng.Intn(npages))
				p, err := st.Fetch(id)
				if err != nil {
					errc <- err
					return
				}
				if !checkStamp(p.Data(), id) {
					errc <- fmt.Errorf("goroutine %d: page %d contents corrupted", g, id)
					st.Unpin(p, false)
					return
				}
				st.Unpin(p, false)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	s := st.Stats()
	if s.Fetches != goroutines*opsPer {
		t.Errorf("fetches = %d, want %d", s.Fetches, goroutines*opsPer)
	}
	if s.Hits+s.PhysicalReads != s.Fetches {
		t.Errorf("hits %d + reads %d != fetches %d", s.Hits, s.PhysicalReads, s.Fetches)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions with a pool smaller than the working set")
	}
}

// TestConcurrentFetchCountersExact verifies the no-eviction guarantee
// the executors' counter test relies on: with a pool that holds the
// whole working set, hit/miss totals are schedule-independent — each
// page misses exactly once no matter how many goroutines race for it.
func TestConcurrentFetchCountersExact(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 2 * minShardFrames})
	const npages = 2 * minShardFrames
	for i := 0; i < npages; i++ {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(p.Data(), p.ID())
		st.Unpin(p, true)
	}
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	st.ResetStats()

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < npages; i++ {
					p, err := st.Fetch(PageID(i))
					if err != nil {
						t.Error(err)
						return
					}
					st.Unpin(p, false)
				}
			}
		}()
	}
	wg.Wait()

	s := st.Stats()
	want := uint64(goroutines * rounds * npages)
	if s.Fetches != want {
		t.Errorf("fetches = %d, want %d", s.Fetches, want)
	}
	if s.PhysicalReads != npages {
		t.Errorf("physical reads = %d, want exactly %d (one per page)", s.PhysicalReads, npages)
	}
	if s.Hits != want-npages {
		t.Errorf("hits = %d, want %d", s.Hits, want-npages)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", s.Evictions)
	}
}

// TestPinnedPagesNeverExhaustPool is the pin-admission guarantee of the
// derived shard count: several goroutines together pin N ≤
// min(PoolPages, 64) distinct pages whose IDs all hash to one shard —
// the adversarial case for a striped pool — hold every pin at once, and
// must never see ErrPoolExhausted. Before each round the pool is filled
// with other pages, so the pins must evict to get frames.
func TestPinnedPagesNeverExhaustPool(t *testing.T) {
	for _, pool := range []int{32, 2 * minShardFrames, 991} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			st := tempStore(t, Options{PageSize: 128, PoolPages: pool})
			nshards := len(st.shards)
			if pool >= 2*minShardFrames && nshards < 2 {
				t.Fatalf("pool=%d has %d shard(s), want at least 2", pool, nshards)
			}
			// Every shard residue gets 2*minShardFrames pages.
			perShard := 2 * minShardFrames
			npages := perShard * nshards
			for i := 0; i < npages; i++ {
				p, err := st.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				stampPage(p.Data(), p.ID())
				st.Unpin(p, true)
			}
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < pool; i++ {
					p, err := st.Fetch(PageID(rng.Intn(npages)))
					if err != nil {
						t.Log(err)
						return false
					}
					st.Unpin(p, false)
				}
				residue := rng.Intn(nshards)
				n := 1 + rng.Intn(min(pool, minShardFrames))
				ids := make([]PageID, n)
				for i, k := range rng.Perm(perShard)[:n] {
					ids[i] = PageID(residue + k*nshards)
				}
				workers := 1 + rng.Intn(8)
				var held, done sync.WaitGroup
				held.Add(workers)
				errc := make(chan error, workers)
				for w := 0; w < workers; w++ {
					done.Add(1)
					go func(mine []PageID) {
						defer done.Done()
						var pinned []*Page
						var err error
						for _, id := range mine {
							p, ferr := st.Fetch(id)
							if ferr != nil {
								err = fmt.Errorf("pin %d of %d pages: %w", len(pinned)+1, n, ferr)
								break
							}
							pinned = append(pinned, p)
							if !checkStamp(p.Data(), id) {
								err = fmt.Errorf("page %d contents corrupted", id)
								break
							}
						}
						held.Done()
						held.Wait() // every goroutine holds its pins at once
						for _, p := range pinned {
							st.Unpin(p, false)
						}
						errc <- err
					}(ids[w*n/workers : (w+1)*n/workers])
				}
				done.Wait()
				close(errc)
				for err := range errc {
					if err != nil {
						t.Logf("seed %d: %v", seed, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

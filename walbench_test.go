package stagedb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkWALCommit measures durable commit latency and throughput under
// concurrency, per flush policy: group commit (commits park until a shared
// flusher has fsynced through their LSN, one fsync amortized over everyone
// waiting) against the per-commit-fsync baseline. Each writer commits into
// its own table — the engine's two-phase locking is table-granular and holds
// the exclusive lock through the commit flush, so same-table writers would
// serialize and measure the lock manager, not the log. The headline number
// is the 32-writer pair: group commit's advantage grows with concurrency
// because its fsync count stays near-constant while the baseline's grows
// linearly. bench.sh records the datapoints in BENCH_wal.json and
// bench_gate.sh fails CI if group commit falls below 3x the baseline's
// 32-writer throughput.
func BenchmarkWALCommit(b *testing.B) {
	modes := []struct {
		name string
		d    Durability
	}{
		{"group", DurabilityGroup},
		{"sync", DurabilitySync},
	}
	for _, mode := range modes {
		for _, writers := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s-%dw", mode.name, writers), func(b *testing.B) {
				// Workers sizes the staged execute pool; without it the
				// default 2 workers cap in-flight commits at 2 and the
				// bench would measure the stage scheduler, not the log.
				db, err := Open(Options{DataDir: b.TempDir(), Durability: mode.d, Workers: writers})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				for w := 0; w < writers; w++ {
					if _, err := db.ExecContext(b.Context(), fmt.Sprintf("CREATE TABLE t%d (id INT PRIMARY KEY, v INT)", w)); err != nil {
						b.Fatal(err)
					}
				}
				var next atomic.Int64
				var failed atomic.Value
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					conn := db.Conn()
					table := fmt.Sprintf("t%d", w)
					go func() {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							if _, err := conn.ExecContext(b.Context(), "INSERT INTO "+table+" VALUES (?, ?)", i, i); err != nil {
								failed.Store(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if err := failed.Load(); err != nil {
					b.Fatal(err)
				}
				if st := db.WALStats(); st["commits"] > 0 && st["commit_groups"] > 0 {
					b.ReportMetric(float64(st["grouped_commits"])/float64(st["commit_groups"]), "commits/fsync")
				}
			})
		}
	}
}

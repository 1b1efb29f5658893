// Package autotune implements the §4.4 self-tuning controllers for a staged
// DBMS. Each controller is a pure decision function over observed metrics,
// so it is deterministic and unit-testable; the engine applies the
// recommendations.
//
// The four tuned parameters, per the paper:
//
//	(a) the number of threads at each stage (from its observed queue length),
//	(b) the stage size — merging or splitting stages against the cache size,
//	(c) the page size for intermediate results, and
//	(d) the thread scheduling policy for the current load.
package autotune

import (
	"sort"

	"stagedb/internal/metrics"
	"stagedb/internal/queuesim"
)

// ThreadRecommendation sizes one stage's worker pool.
type ThreadRecommendation struct {
	Stage   string
	Workers int
}

// TuneExecWorkers sizes each stage's worker pool from its observed queue
// pressure (§4.4a). Operator tasks never hold a worker while blocked — they
// yield — so queue length is the load signal: an idle stage needs one
// worker, and each backlog of perWorker queued tasks (0 = 4) earns another,
// capped at maxWorkers (0 = 16).
func TuneExecWorkers(snaps []metrics.StageSnapshot, perWorker, maxWorkers int) []ThreadRecommendation {
	if perWorker <= 0 {
		perWorker = 4
	}
	if maxWorkers <= 0 {
		maxWorkers = 16
	}
	out := make([]ThreadRecommendation, 0, len(snaps))
	for _, s := range snaps {
		workers := 1 + s.QueueLen/perWorker
		if workers > maxWorkers {
			workers = maxWorkers
		}
		out = append(out, ThreadRecommendation{Stage: s.Name, Workers: workers})
	}
	return out
}

// StageGroup is a set of modules fused into one stage.
type StageGroup struct {
	Modules []string
	Bytes   int64
}

// Module describes a candidate stage module for grouping.
type Module struct {
	Name  string
	Bytes int64 // common working-set size
}

// TuneWorkMem recommends the next per-query memory budget from observed
// spill pressure (§4.4 applied to the stateful operators' work-mem knob).
// spillEvents is the number of operator spills (sorts, aggregations, join
// builds crossing their budget) observed since the last tuning pass: any
// spilling doubles the budget — spills trade memory for temp-file I/O, so a
// budget that keeps forcing them is mis-sized — capped at maxBytes (0 =
// 256 MB); a quiet window keeps the current budget (shrinking would only
// re-induce the spills the next repeat of the workload). Budgets never drop
// below the stateful operators' 64 KB floor.
func TuneWorkMem(spillEvents, current, maxBytes int64) int64 {
	const floor = 64 << 10
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if current < floor {
		current = floor
	}
	if spillEvents <= 0 {
		return current
	}
	next := current * 2
	if next > maxBytes {
		next = maxBytes
	}
	if next < current {
		// The cap never shrinks an already-larger budget: a spill response
		// must not reduce memory (that would only induce more spills).
		next = current
	}
	if next < floor {
		next = floor
	}
	return next
}

// GroupStages fuses adjacent modules while their combined working set fits
// the cache (§4.4b: "dynamically merge or split stages"): few huge stages
// fail to exploit the cache, many tiny ones pay queueing overhead, so the
// controller packs greedily up to the cache size. Order is preserved
// (modules are pipeline-adjacent).
func GroupStages(mods []Module, cacheBytes int64) []StageGroup {
	var out []StageGroup
	var cur StageGroup
	for _, m := range mods {
		if len(cur.Modules) > 0 && cur.Bytes+m.Bytes > cacheBytes {
			out = append(out, cur)
			cur = StageGroup{}
		}
		cur.Modules = append(cur.Modules, m.Name)
		cur.Bytes += m.Bytes
	}
	if len(cur.Modules) > 0 {
		out = append(out, cur)
	}
	return out
}

// PageSample is one measured throughput at a page size.
type PageSample struct {
	PageRows   int
	Throughput float64 // queries (or rows) per second, higher is better
}

// TunePageSize picks the best measured page size, breaking ties toward the
// smaller size (less latency per §4.4c: the page size bounds how long a
// stage works on one query before switching).
func TunePageSize(samples []PageSample) int {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]PageSample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Throughput != sorted[j].Throughput {
			return sorted[i].Throughput > sorted[j].Throughput
		}
		return sorted[i].PageRows < sorted[j].PageRows
	})
	return sorted[0].PageRows
}

// ChoosePolicy selects the scheduling policy for the observed operating
// point (§4.4d: "different scheduling policies prevail for different system
// loads"). Below the locality threshold or at low load, plain FCFS wins (no
// batching delay); beyond it the gated staged policy exploits module
// affinity (Figure 5: staged policies overtake the baselines once module
// load time exceeds ~2% of execution time).
func ChoosePolicy(load, loadFraction float64) queuesim.Policy {
	if loadFraction < 0.02 || load < 0.5 {
		return queuesim.Policy{Kind: queuesim.FCFS}
	}
	return queuesim.Policy{Kind: queuesim.TGated, K: 2}
}

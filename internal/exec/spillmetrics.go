package exec

// spillmetrics.go carries the counters of the memory-bounded execution path:
// every run the external sort writes, every partition the spilling hash
// aggregation and grace hash join fan out to, and the file/byte volume that
// moved through the spill layer. One SpillMetrics instance is shared by all
// queries of a kernel; it surfaces as DB.SpillStats(), the "spill"
// pseudo-stage in staged snapshots, and the CLI \stages view.

import "sync/atomic"

// SpillMetrics aggregates spill activity across queries. All methods are
// safe on a nil receiver (counters discarded), so operators never need to
// nil-check their wiring.
type SpillMetrics struct {
	sortSpills  atomic.Int64 // sorts that exceeded WorkMem and wrote runs
	sortRuns    atomic.Int64 // sorted runs written (including merge outputs)
	mergePasses atomic.Int64 // cascade merge passes beyond the final k-way
	topN        atomic.Int64 // Top-N executions (bounded heap, no spill)
	aggSpills   atomic.Int64 // aggregations that exceeded WorkMem
	aggParts    atomic.Int64 // aggregation partitions written
	joinSpills  atomic.Int64 // hash joins whose build side exceeded WorkMem
	joinParts   atomic.Int64 // join partitions written (build + probe)

	spilledRows  atomic.Int64 // rows written to spill files
	spilledBytes atomic.Int64 // bytes written to spill files
	filesCreated atomic.Int64
	filesRemoved atomic.Int64
}

func (m *SpillMetrics) addSortSpill() {
	if m != nil {
		m.sortSpills.Add(1)
	}
}
func (m *SpillMetrics) addSortRun() {
	if m != nil {
		m.sortRuns.Add(1)
	}
}
func (m *SpillMetrics) addMergePass() {
	if m != nil {
		m.mergePasses.Add(1)
	}
}
func (m *SpillMetrics) addTopN() {
	if m != nil {
		m.topN.Add(1)
	}
}

// addAggSpill counts an aggregation level spilled: its two sides of
// graceFanOut partition files.
func (m *SpillMetrics) addAggSpill() {
	if m != nil {
		m.aggSpills.Add(1)
		m.aggParts.Add(2 * graceFanOut)
	}
}

// addJoinSpill counts a join level spilled: its build and probe sides of
// graceFanOut partition files.
func (m *SpillMetrics) addJoinSpill() {
	if m != nil {
		m.joinSpills.Add(1)
		m.joinParts.Add(2 * graceFanOut)
	}
}

// FileCreated implements spill.Tracker.
func (m *SpillMetrics) FileCreated() {
	if m != nil {
		m.filesCreated.Add(1)
	}
}

// FileRemoved implements spill.Tracker.
func (m *SpillMetrics) FileRemoved() {
	if m != nil {
		m.filesRemoved.Add(1)
	}
}

// Wrote implements spill.Tracker.
func (m *SpillMetrics) Wrote(rows, bytes int64) {
	if m != nil {
		m.spilledRows.Add(rows)
		m.spilledBytes.Add(bytes)
	}
}

// budgetPresize caps a planner-estimate pre-allocation hint by the WorkMem
// budget: pre-allocating headers for rows the budget will never let
// accumulate would itself blow past the budget (64 is a floor on what one
// accumulated row costs under rowMemSize accounting).
func budgetPresize(hint int, workMem int64) int {
	if max := int(workMem / 64); hint > max {
		return max
	}
	return hint
}

// SpillStats is a point-in-time copy of the spill counters.
type SpillStats struct {
	// SortSpills counts sorts that exceeded WorkMem; SortRuns counts sorted
	// runs written (cascade merge outputs included); MergePasses counts
	// intermediate merge passes a run cascade needed beyond the final k-way.
	SortSpills, SortRuns, MergePasses int64
	// TopN counts ORDER BY + LIMIT executions served by the bounded k-heap
	// (O(k) memory, never spilled).
	TopN int64
	// AggSpills / AggPartitions count hash aggregations that exceeded
	// WorkMem and the grace partitions they wrote.
	AggSpills, AggPartitions int64
	// JoinSpills / JoinPartitions count hash joins whose build side exceeded
	// WorkMem and the partition files written across both sides.
	JoinSpills, JoinPartitions int64
	// SpilledRows / SpilledBytes total the row and byte volume written to
	// spill files.
	SpilledRows, SpilledBytes int64
	// FilesCreated / FilesRemoved track spill-file lifecycle; FilesLive is
	// their difference and must be zero when no query is running (the leak
	// tests assert it).
	FilesCreated, FilesRemoved int64
}

// FilesLive reports spill files currently on disk.
func (s SpillStats) FilesLive() int64 { return s.FilesCreated - s.FilesRemoved }

// Stats snapshots the counters. Safe on nil (zero stats).
func (m *SpillMetrics) Stats() SpillStats {
	if m == nil {
		return SpillStats{}
	}
	return SpillStats{
		SortSpills:     m.sortSpills.Load(),
		SortRuns:       m.sortRuns.Load(),
		MergePasses:    m.mergePasses.Load(),
		TopN:           m.topN.Load(),
		AggSpills:      m.aggSpills.Load(),
		AggPartitions:  m.aggParts.Load(),
		JoinSpills:     m.joinSpills.Load(),
		JoinPartitions: m.joinParts.Load(),
		SpilledRows:    m.spilledRows.Load(),
		SpilledBytes:   m.spilledBytes.Load(),
		FilesCreated:   m.filesCreated.Load(),
		FilesRemoved:   m.filesRemoved.Load(),
	}
}

// Counters renders the spill counters for stage snapshots (the \stages view).
func (m *SpillMetrics) Counters() map[string]int64 {
	st := m.Stats()
	return map[string]int64{
		"spill.sort.spills":     st.SortSpills,
		"spill.sort.runs":       st.SortRuns,
		"spill.sort.mergepass":  st.MergePasses,
		"spill.topn":            st.TopN,
		"spill.agg.spills":      st.AggSpills,
		"spill.agg.partitions":  st.AggPartitions,
		"spill.join.spills":     st.JoinSpills,
		"spill.join.partitions": st.JoinPartitions,
		"spill.rows":            st.SpilledRows,
		"spill.bytes":           st.SpilledBytes,
		"spill.files.live":      st.FilesLive(),
	}
}

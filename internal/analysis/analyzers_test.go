package analysis_test

import (
	"testing"

	"stagedb/internal/analysis"
	"stagedb/internal/analysis/analysistest"
)

func TestPageRefs(t *testing.T) {
	analysistest.Run(t, analysis.PageRefs, "pagerefs")
}

func TestRowRetain(t *testing.T) {
	analysistest.Run(t, analysis.RowRetain, "rowretain/internal/exec")
}

// TestRowRetainOutOfScope checks the analyzer stays silent outside
// internal/exec and the stagedb root.
func TestRowRetainOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.RowRetain, "rowretain/plain")
}

func TestSpillFiles(t *testing.T) {
	analysistest.Run(t, analysis.SpillFiles, "spillfiles")
}

func TestFsFiles(t *testing.T) {
	analysistest.Run(t, analysis.FsFiles, "fsfiles")
}

func TestSyncErr(t *testing.T) {
	analysistest.Run(t, analysis.SyncErr, "syncerr/txn")
}

// TestSyncErrOutOfScope checks the analyzer stays silent outside the
// stable-storage packages.
func TestSyncErrOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.SyncErr, "syncerr/plain")
}

// TestSyncErrHeapScan checks a discarded Heap.Scan error is flagged in any
// package, not only the stable-storage ones.
func TestSyncErrHeapScan(t *testing.T) {
	analysistest.Run(t, analysis.SyncErr, "syncerr/engine")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow/internal/engine")
}

// TestCtxFlowServer checks the server package is in scope: a session that
// mints its own context escapes drain and deadline plumbing.
func TestCtxFlowServer(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow/internal/server")
}

// TestCtxFlowTxn checks the lock-manager package is in scope: a lock wait
// issued under a fresh Background squats in the queue after its query dies.
func TestCtxFlowTxn(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow/internal/txn")
}

// TestCtxFlowOutOfScope checks the analyzer stays silent outside the
// context-threaded packages.
func TestCtxFlowOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow/plain")
}

func TestStageBlock(t *testing.T) {
	analysistest.Run(t, analysis.StageBlock, "stageblock/exec")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotAlloc, "hotalloc")
}

func TestWalBarrier(t *testing.T) {
	analysistest.Run(t, analysis.WalBarrier, "walbarrier/engine")
}

// TestWalBarrierOutOfScope checks the analyzer stays silent outside the
// engine package: raw heap mutations elsewhere (tests, tools) are not
// WAL-before-data sites.
func TestWalBarrierOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.WalBarrier, "walbarrier/plain")
}

func TestVerHdr(t *testing.T) {
	analysistest.Run(t, analysis.VerHdr, "verhdr/engine")
}

// TestVerHdrMvccExempt checks package mvcc may call the storage codec
// writers directly — it is the sanctioned stamp API.
func TestVerHdrMvccExempt(t *testing.T) {
	analysistest.Run(t, analysis.VerHdr, "verhdr/mvcc")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder, "lockorder/engine")
}

// TestLockOrderAdmission covers the rank-0 admission lock: holding it into
// a table lock is canonical, the reverse is an inversion.
func TestLockOrderAdmission(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder, "lockorder/server")
}

// TestLockOrderCycle covers the same-rank acquisition cycle: Pool.mu and
// Store.mu share a rank, so only the package-wide graph catches the
// opposite-order nesting.
func TestLockOrderCycle(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder, "lockorder/storage")
}

// TestSuppress covers the escape hatch end to end: justified suppressions
// silence a real pagerefs violation on the same or next line, while
// malformed ones (no reason, unknown analyzer) are themselves diagnostics
// and silence nothing.
func TestSuppress(t *testing.T) {
	analysistest.Run(t, analysis.PageRefs, "suppress")
}

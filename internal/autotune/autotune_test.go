package autotune

import (
	"testing"

	"stagedb/internal/metrics"
	"stagedb/internal/queuesim"
)

func TestGroupStagesPacksToCache(t *testing.T) {
	mods := []Module{
		{Name: "parse", Bytes: 100},
		{Name: "rewrite", Bytes: 50},
		{Name: "optimize", Bytes: 200},
		{Name: "fscan", Bytes: 120},
		{Name: "join", Bytes: 180},
	}
	groups := GroupStages(mods, 300)
	// parse+rewrite(150) fit; +optimize would be 350 -> split; optimize(200)
	// +fscan would be 320 -> split; fscan+join = 300 fits exactly.
	if len(groups) != 3 {
		t.Fatalf("groups: %+v", groups)
	}
	if len(groups[0].Modules) != 2 || groups[0].Bytes != 150 {
		t.Fatalf("group 0: %+v", groups[0])
	}
	if len(groups[2].Modules) != 2 || groups[2].Bytes != 300 {
		t.Fatalf("group 2: %+v", groups[2])
	}
}

func TestGroupStagesOversizedModuleAlone(t *testing.T) {
	groups := GroupStages([]Module{{Name: "big", Bytes: 1000}, {Name: "tiny", Bytes: 1}}, 300)
	if len(groups) != 2 || len(groups[0].Modules) != 1 {
		t.Fatalf("oversized module should stand alone: %+v", groups)
	}
}

func TestTunePageSize(t *testing.T) {
	best := TunePageSize([]PageSample{
		{PageRows: 1, Throughput: 50},
		{PageRows: 64, Throughput: 100},
		{PageRows: 1024, Throughput: 100}, // tie -> smaller wins
	})
	if best != 64 {
		t.Fatalf("best=%d, want 64", best)
	}
	if TunePageSize(nil) != 0 {
		t.Fatal("empty samples should return 0")
	}
}

func TestChoosePolicyByOperatingPoint(t *testing.T) {
	if p := ChoosePolicy(0.95, 0.01); p.Kind != queuesim.FCFS {
		t.Fatalf("tiny l should pick FCFS, got %s", p.Name())
	}
	if p := ChoosePolicy(0.3, 0.4); p.Kind != queuesim.FCFS {
		t.Fatalf("low load should pick FCFS, got %s", p.Name())
	}
	p := ChoosePolicy(0.95, 0.2)
	if p.Kind != queuesim.TGated || p.K != 2 {
		t.Fatalf("high load + locality should pick T-gated(2), got %s", p.Name())
	}
	// The choice must actually win in the simulator at that operating point.
	cfg := queuesim.DefaultConfig(0.2, 0.95)
	cfg.Jobs, cfg.Warmup = 3000, 300
	chosen := queuesim.Run(cfg, p)
	ps := queuesim.Run(cfg, queuesim.Policy{Kind: queuesim.PS})
	if chosen.MeanResponse >= ps.MeanResponse {
		t.Fatalf("chosen policy (%v) should beat PS (%v)", chosen.MeanResponse, ps.MeanResponse)
	}
}

func TestTuneExecWorkersFromQueueLength(t *testing.T) {
	snaps := []metrics.StageSnapshot{
		{Name: "fscan", QueueLen: 0},
		{Name: "join", QueueLen: 9},
		{Name: "aggr", QueueLen: 400},
	}
	recs := TuneExecWorkers(snaps, 4, 8)
	want := map[string]int{
		"fscan": 1, // idle stage: one worker, extras only thrash (§3.1.1)
		"join":  3, // 1 + 9/4
		"aggr":  8, // capped
	}
	for _, r := range recs {
		if r.Workers != want[r.Stage] {
			t.Fatalf("%s: got %d workers, want %d", r.Stage, r.Workers, want[r.Stage])
		}
	}
}

func TestTuneWorkMem(t *testing.T) {
	const mb = 1 << 20
	// Spilling doubles, capped at maxBytes.
	if got := TuneWorkMem(3, 16*mb, 256*mb); got != 32*mb {
		t.Fatalf("spilling should double: %d", got)
	}
	if got := TuneWorkMem(1, 200*mb, 256*mb); got != 256*mb {
		t.Fatalf("doubling should cap at max: %d", got)
	}
	// A quiet window keeps the budget.
	if got := TuneWorkMem(0, 16*mb, 256*mb); got != 16*mb {
		t.Fatalf("no spills should hold: %d", got)
	}
	// A cap below the current budget must never shrink it — a spill response
	// reducing memory would only induce more spills.
	if got := TuneWorkMem(1, 512*mb, 256*mb); got != 512*mb {
		t.Fatalf("cap must not shrink an already-larger budget: %d", got)
	}
	if got := TuneWorkMem(1, 16*mb, 8*mb); got != 16*mb {
		t.Fatalf("user cap below current must hold, not shrink: %d", got)
	}
	// Budgets never drop below the operator floor.
	if got := TuneWorkMem(0, 1, 256*mb); got != 64<<10 {
		t.Fatalf("floor: %d", got)
	}
	if got := TuneWorkMem(5, 1, 256*mb); got != 128<<10 {
		t.Fatalf("spill from floor doubles the floor: %d", got)
	}
}

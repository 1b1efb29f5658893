package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is the all-workloads output: per workload, every untraced run's
// end-to-end values and the traced run's per-layer values. Two sets are what
// -compare reads.
type resultSet struct {
	Env       env                     `json:"env"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Runs      int                     `json:"runs"`
	Smoke     bool                    `json:"smoke"`
	Workloads map[string]*workloadSet `json:"workloads"`
	Claim     *string                 `json:"claim"`
}

type workloadSet struct {
	Why     string `json:"why"`
	Correct bool   `json:"correct"`
	// EndToEnd holds one value per untraced run.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	// PerLayer is the traced run's value; null where the workload has
	// nothing to measure.
	PerLayer map[string]*float64               `json:"per_layer"`
	Ladder   map[string]map[string]rungSummary `json:"ladder"`
}

// runAll runs every workload in a fresh child process each time, so peak
// RSS and GC state are the workload's own: `runs` untraced runs, then one
// traced run.
func runAll(ctx context.Context, seed int64, seconds float64, smoke bool, runs int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Env: readEnv(), Seed: seed, Seconds: seconds, Runs: runs, Smoke: smoke, Workloads: make(map[string]*workloadSet)}
	allCorrect := true
	for _, wl := range workloadNames {
		ws := &workloadSet{Why: workloadWhy[wl], Correct: true, EndToEnd: make(map[string][]float64),
			PerLayer: make(map[string]*float64)}
		set.Workloads[wl] = ws
		for i := 0; i <= runs; i++ {
			trace := 0
			if i == runs {
				trace = 1
			}
			args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
			if smoke {
				args = append(args, "-smoke")
			}
			reportPath := filepath.Join(outDir, fmt.Sprintf("report-%s-trace%d.json", wl, trace))
			if err := os.Remove(reportPath); err != nil && !os.IsNotExist(err) {
				return err // a stale report must not be read as this run's
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var rep report
			b, err := os.ReadFile(reportPath)
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			if err != nil {
				return fmt.Errorf("%s trace %d: %v (report: %w)", wl, trace, runErr, err)
			}
			ws.Correct = ws.Correct && rep.Correct && runErr == nil
			for name, m := range rep.Metrics {
				if trace == 1 {
					ws.PerLayer[name] = m.Value
				} else if m.Value != nil {
					ws.EndToEnd[name] = append(ws.EndToEnd[name], *m.Value)
				}
			}
			if trace == 1 {
				ws.Ladder = rep.Ladder
			}
		}
		allCorrect = allCorrect && ws.Correct
	}

	fmt.Printf("\n# summary: seed %d, %d untraced run(s) per workload, medians\n", seed, runs)
	for _, wl := range workloadNames {
		ws := set.Workloads[wl]
		fmt.Printf("# %s correct=%v\n", wl, ws.Correct)
		for _, d := range endToEnd {
			fmt.Printf("summary %s %s %.6g %s\n", wl, d.Name, medianFloat(ws.EndToEnd[d.Name]), d.Unit)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("set-seed%d.json", seed))
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Printf("# result set written to %s (\"claim\": null)\n", path)
	if !allCorrect {
		return fmt.Errorf("at least one workload reported incorrect results")
	}
	return nil
}

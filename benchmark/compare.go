package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// spread is the run-to-run spread of one metric: the distance between the
// first and third quartile as a share of the median. It needs two runs; with
// fewer it is NaN and the verdict cannot be "unresolved".
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / medianFloat(xs)
}

// verdict judges b against a for one metric. worse is how far b's median
// moved in the bad direction as a share of a's median; a set whose own
// spread exceeds the bound cannot resolve a move of the bound's size.
func verdict(a, b []float64, better string, bound float64) (ratio, worse float64, v string) {
	ma, mb := medianFloat(a), medianFloat(b)
	ratio = mb / ma
	worse = ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	switch sa, sb := spread(a), spread(b); {
	case sa > bound || sb > bound:
		v = "unresolved"
	case worse > bound:
		v = "worse"
	default:
		v = "ok"
	}
	return ratio, worse, v
}

// compareSets prints, per end-to-end metric and workload, both medians, the
// ratio b/a (base: a), the bound and the verdict, then the per-layer values
// side by side. ok is false when any pairing is worse.
func compareSets(out io.Writer, specPath, pathA, pathB string) (ok bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: %s commit %s seed %d runs %d\nb: %s commit %s seed %d runs %d\n",
		pathA, a.Env.Commit, a.Seed, a.Runs, pathB, b.Env.Commit, b.Seed, b.Runs)
	ok = true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tb/a (base a)\tspread a\tspread b\tbound\tverdict")
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from a set", w.Name)
		}
		for _, m := range spec.EndToEnd {
			xa, xb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s %s: no values", w.Name, m.Name)
			}
			ratio, _, v := verdict(xa, xb, m.Better, m.Bound)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n", w.Name, m.Name,
				medianFloat(xa), m.Unit, medianFloat(xb), m.Unit, ratio, spread(xa), spread(xb), m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintln(out, "\nper-layer (one traced run each, no bound):")
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a (base a)")
	for _, w := range spec.Workloads {
		for _, m := range spec.PerLayer {
			va, vb := a.Workloads[w.Name].PerLayer[m.Name], b.Workloads[w.Name].PerLayer[m.Name]
			if va == nil && vb == nil {
				continue
			}
			ratio := "n/a"
			if va != nil && vb != nil && *va != 0 {
				ratio = fmt.Sprintf("%.4f", *vb / *va)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s %s\t%s %s\t%s\n", w.Name, m.Name, fmtPtr(va), m.Unit, fmtPtr(vb), m.Unit, ratio)
		}
	}
	return ok, tw.Flush()
}

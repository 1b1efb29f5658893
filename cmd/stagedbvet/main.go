// Command stagedbvet is the engine's custom static-analysis driver: a
// multichecker over the internal/analysis suite that machine-checks the
// resource and staging invariants (page references, spill-file lifecycles,
// context threading, no blocking under stage locks, hot-path allocations)
// and the durability/MVCC/locking invariants (WAL-before-data, version-header
// stamps, lock ordering).
//
// Usage:
//
//	go run ./cmd/stagedbvet ./...            # run the full suite
//	go run ./cmd/stagedbvet -list            # describe the analyzers
//	go run ./cmd/stagedbvet -run pagerefs,ctxflow ./internal/exec
//	go run ./cmd/stagedbvet -json ./...      # machine-readable diagnostics
//
// Diagnostics print as file:line:col: [analyzer] message and make the
// process exit non-zero, so CI runs it exactly like go vet. With -json the
// diagnostics print to stdout as a JSON array of
//
//	{"file": ..., "line": ..., "col": ..., "analyzer": ..., "message": ...}
//
// sorted by position, which CI turns into GitHub annotations. Deliberate
// violations are suppressed in source with
//
//	//stagedbvet:ignore <analyzer> <justification>
//
// on the flagged line or the line above; a suppression without a
// justification is itself a diagnostic (see internal/analysis).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"stagedb/internal/analysis"
)

// diagJSON is one diagnostic in -json output.
type diagJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	run := flag.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stagedbvet [-list] [-run a,b] [-json] <package patterns>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*run, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "stagedbvet:", err)
			os.Exit(2)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagedbvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadPackages(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagedbvet:", err)
		os.Exit(2)
	}

	var found []diagJSON
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stagedbvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			found = append(found, diagJSON{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if found == nil {
			found = []diagJSON{} // always a JSON array, never null
		}
		if err := enc.Encode(found); err != nil {
			fmt.Fprintln(os.Stderr, "stagedbvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range found {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(found) > 0 {
		os.Exit(1)
	}
}

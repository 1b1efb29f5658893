package main

import (
	"context"
	"fmt"
	"strings"
)

// loadBatch is the number of rows per INSERT statement while loading: large
// enough that a durable load pays one commit per few hundred rows.
const loadBatch = 500

// execFunc runs one statement; analyzeFunc refreshes one table's optimizer
// statistics. The loader is written against these so the stagedb.DB under
// the top rungs and the engine.DB under the lower rungs load byte-identical
// data.
type (
	execFunc    func(ctx context.Context, sqlText string) error
	analyzeFunc func(table string) error
)

// tablesOf names the tables a workload needs.
func tablesOf(workload string) []string {
	switch workload {
	case wlPointReadWire:
		return []string{"acct"}
	case wlOLTPDurable:
		return []string{"acct", "hist"}
	case wlAnalyticsMem:
		return []string{"fact", "dim"}
	default:
		return []string{"fact", "dim", "keys"}
	}
}

var tableDDL = map[string]string{
	"acct": "CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT, pad TEXT)",
	"hist": "CREATE TABLE hist (id INT PRIMARY KEY, acct INT, delta INT)",
	"fact": "CREATE TABLE fact (id INT PRIMARY KEY, grp INT, k INT, val INT, pad TEXT)",
	"dim":  "CREATE TABLE dim (grp INT PRIMARY KEY, name TEXT)",
	"keys": "CREATE TABLE keys (k INT PRIMARY KEY, w INT)",
}

// tableRows returns a table's cardinality and its row renderer.
func tableRows(table string, sz sizes) (int, func(b *strings.Builder, i int)) {
	switch table {
	case "acct":
		pad := strings.Repeat("a", acctPadLen)
		return sz.Acct, func(b *strings.Builder, i int) {
			fmt.Fprintf(b, "(%d,%d,%d,'%s')", i, grpOf(i, sz), balOf(i), pad)
		}
	case "fact":
		pad := strings.Repeat("f", factPadLen)
		return sz.Fact, func(b *strings.Builder, i int) {
			fmt.Fprintf(b, "(%d,%d,%d,%d,'%s')", i, grpOf(i, sz), kOf(i, sz), valOf(i), pad)
		}
	case "dim":
		return sz.Grps, func(b *strings.Builder, i int) { fmt.Fprintf(b, "(%d,'%s')", i, dimName(i)) }
	case "keys":
		return sz.Keys, func(b *strings.Builder, i int) { fmt.Fprintf(b, "(%d,%d)", i, wOf(i)) }
	}
	return 0, nil // hist starts empty
}

// loadWorkload creates, fills and analyzes the workload's tables.
func loadWorkload(ctx context.Context, workload string, sz sizes, exec execFunc, analyze analyzeFunc) error {
	for _, table := range tablesOf(workload) {
		if err := exec(ctx, tableDDL[table]); err != nil {
			return fmt.Errorf("create %s: %w", table, err)
		}
		n, render := tableRows(table, sz)
		var b strings.Builder
		for lo := 0; lo < n; lo += loadBatch {
			b.Reset()
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
			for i := lo; i < min(lo+loadBatch, n); i++ {
				if i > lo {
					b.WriteByte(',')
				}
				render(&b, i)
			}
			if err := exec(ctx, b.String()); err != nil {
				return fmt.Errorf("load %s: %w", table, err)
			}
		}
		if err := analyze(table); err != nil {
			return fmt.Errorf("analyze %s: %w", table, err)
		}
	}
	return nil
}

// userBytes is the live user payload the loader stored for a workload, in
// bytes of column data (8 per INT, the pad's length per TEXT): the
// denominator of storage.space_amp.
func userBytes(workload string, sz sizes, histRows int64) int64 {
	var n int64
	for _, table := range tablesOf(workload) {
		switch table {
		case "acct":
			n += int64(sz.Acct) * (3*8 + acctPadLen)
		case "hist":
			n += histRows * 3 * 8
		case "fact":
			n += int64(sz.Fact) * (4*8 + factPadLen)
		case "dim":
			n += int64(sz.Grps) * (8 + 3)
		case "keys":
			n += int64(sz.Keys) * 2 * 8
		}
	}
	return n
}

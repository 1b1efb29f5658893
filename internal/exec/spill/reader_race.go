//go:build race

package spill

import "stagedb/internal/value"

// recycledValue is what a recycled spill row holds in race-detector builds:
// a row kept past the next Next or Close on its reader shows this instead of
// plausible values from the next row, so the test that keeps it fails.
var recycledValue = value.NewText("<recycled spill row>")

// recycleRow overwrites the row a Reader returned last with the sentinel and
// hands back no storage, so the next row decodes into fresh storage.
func recycleRow(row value.Row) value.Row {
	for i := range row {
		row[i] = recycledValue
	}
	return nil
}

// raceEnabled reports a race-detector build: recycled rows are poisoned.
const raceEnabled = true

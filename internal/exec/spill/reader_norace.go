//go:build !race

package spill

import "stagedb/internal/value"

// recycleRow hands the row a Reader returned last back for the next row to
// decode over; see reader_race.go.
func recycleRow(row value.Row) value.Row { return row }

// raceEnabled reports a race-detector build; see reader_race.go.
const raceEnabled = false

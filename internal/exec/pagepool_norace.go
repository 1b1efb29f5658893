//go:build !race

package exec

import "stagedb/internal/value"

// poisonValues is a no-op outside race-detector builds; see
// pagepool_race.go.
func poisonValues([]value.Value) {}

// markPooled and markLive track parked pages in race-detector builds only;
// see pagepool_race.go.
func markPooled(*Page) {}
func markLive(*Page)   {}

// raceEnabled reports a race-detector build; see pagepool_race.go.
const raceEnabled = false

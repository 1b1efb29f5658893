//go:build race

package exec

import "stagedb/internal/value"

// recycledValue is what recycled value storage holds in race-detector
// builds: a row read after its page was released shows this instead of its
// values, so a use-after-release fails the test that exercises it.
var recycledValue = value.NewText("<recycled exchange-page value>")

// poisonValues overwrites a released page's carved values with the sentinel.
func poisonValues(vals []value.Value) {
	for i := range vals {
		vals[i] = recycledValue
	}
}

// markPooled panics on a page that is already parked in the pool: a second
// Release of one page would otherwise hand it to two producers.
func markPooled(p *Page) {
	if p.pooled {
		panic("exec: Release of a page already returned to its pool")
	}
	p.pooled = true
}

// markLive records that Get handed a parked page out again.
func markLive(p *Page) { p.pooled = false }

// raceEnabled reports a race-detector build: recycled storage is poisoned.
const raceEnabled = true

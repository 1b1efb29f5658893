package vclock

import "sync/atomic"

// Oracle issues strictly monotonic logical timestamps. The MVCC layer uses
// one Oracle per database: snapshot begin timestamps come from Now (the
// current high-water mark) and commit timestamps from Next (a fresh, unique
// tick). Timestamps are logical — they share the Time type with the
// simulation kernel so figures and traces can mix both — but an Oracle never
// consults the wall clock, which keeps crash-recovery deterministic.
//
// Ordering guarantees:
//
//   - Next returns a value strictly greater than every earlier Next result
//     and than the floor NewOracle was given.
//   - Now returns the latest issued value (0 before the first Next).
//
// All methods are safe for concurrent use.
type Oracle struct {
	now atomic.Int64
}

// NewOracle returns an Oracle whose first Next call returns floor+1.
func NewOracle(floor Time) *Oracle {
	o := &Oracle{}
	o.now.Store(int64(floor))
	return o
}

// Next issues a fresh timestamp, strictly greater than all earlier ones.
func (o *Oracle) Next() Time { return Time(o.now.Add(1)) }

// Now returns the most recently issued timestamp without advancing.
func (o *Oracle) Now() Time { return Time(o.now.Load()) }

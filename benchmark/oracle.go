package main

import (
	"fmt"
	"sort"

	"stagedb"
)

// oracle answers every analytic shape from the loader's column functions:
// fact rows sorted by (val, id) with prefix sums for the range shapes, and
// per-group tables for the grouped shapes' argument vocabulary.
type oracle struct {
	sz   sizes
	vals []int64 // sorted val
	// prefix sums over the (val, id) order; entry i covers rows [0, i).
	preID, preVal, preW []int64
	// grouped[t][g] is the agg/join answer for "val > t" and group g.
	grouped map[int64][]grpAnswer
	dimGrp  map[string]int
}

type grpAnswer struct{ count, sum int64 }

func newOracle(sz sizes) *oracle {
	type row struct{ val, id int64 }
	rows := make([]row, sz.Fact)
	for id := range rows {
		rows[id] = row{valOf(id), int64(id)}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].val != rows[j].val {
			return rows[i].val < rows[j].val
		}
		return rows[i].id < rows[j].id
	})
	o := &oracle{
		sz:      sz,
		vals:    make([]int64, sz.Fact),
		preID:   make([]int64, sz.Fact+1),
		preVal:  make([]int64, sz.Fact+1),
		preW:    make([]int64, sz.Fact+1),
		grouped: make(map[int64][]grpAnswer),
		dimGrp:  make(map[string]int),
	}
	for i, r := range rows {
		o.vals[i] = r.val
		o.preID[i+1] = o.preID[i] + r.id
		o.preVal[i+1] = o.preVal[i] + r.val
		o.preW[i+1] = o.preW[i] + wOf(kOf(int(r.id), sz))
	}
	for _, t := range aggThresholds {
		ans := make([]grpAnswer, sz.Grps)
		for id := 0; id < sz.Fact; id++ {
			if v := valOf(id); v > t {
				g := grpOf(id, sz)
				ans[g].count++
				ans[g].sum += v
			}
		}
		o.grouped[t] = ans
	}
	for g := 0; g < sz.Grps; g++ {
		o.dimGrp[dimName(g)] = g
	}
	return o
}

// below is the number of fact rows with val < t.
func (o *oracle) below(t int64) int {
	return sort.Search(len(o.vals), func(i int) bool { return o.vals[i] >= t })
}

// rowCheck verifies one op's result as its rows arrive, so the streaming
// shapes are checked without materializing them.
type rowCheck struct {
	o  *oracle
	op op
	// readWant / readExact are the point read's expectation: the exact
	// balance, or (another client's row, whose updates this client cannot
	// order itself against) a lower bound.
	readWant  int64
	readExact bool

	n               int
	sumA, sumB      int64
	prevVal, prevID int64
	fail            int
	why             string
}

func (c *rowCheck) bad(format string, args ...any) {
	if c.fail == 0 {
		c.why = fmt.Sprintf(format, args...)
	}
	c.fail++
}

func (c *rowCheck) row(r stagedb.Row) {
	c.n++
	switch c.op.Kind {
	case kRead:
		got := r[0].Int()
		if c.readExact && got != c.readWant || !c.readExact && got < c.readWant {
			c.bad("read id %d: got bal %d, want %d (exact=%v)", c.op.Args[0], got, c.readWant, c.readExact)
		}
	case kAgg, kJoin:
		g := -1
		if c.op.Kind == kAgg {
			g = int(r[0].Int())
		} else if v, ok := c.o.dimGrp[r[0].Text()]; ok {
			g = v
		}
		ans := c.o.grouped[c.op.Args[0]]
		if g < 0 || g >= len(ans) {
			c.bad("%s: unknown group %v", c.op.Kind, r[0])
			return
		}
		if r[1].Int() != ans[g].count || r[2].Int() != ans[g].sum {
			c.bad("%s group %d: got (%d,%d), want (%d,%d)", c.op.Kind, g, r[1].Int(), r[2].Int(), ans[g].count, ans[g].sum)
		}
	case kStream:
		c.sumA += r[0].Int()
		c.sumB += r[1].Int()
	case kSort:
		id, val := r[0].Int(), r[1].Int()
		if c.n > 1 && (val < c.prevVal || val == c.prevVal && id <= c.prevID) {
			c.bad("sort: row %d (%d,%d) after (%d,%d)", c.n, val, id, c.prevVal, c.prevID)
		}
		c.prevVal, c.prevID = val, id
		c.sumA += id
	case kGroupK:
		if k := r[0].Int(); k < 0 || k >= int64(c.o.sz.Keys) {
			c.bad("groupk: key %d out of range", k)
		}
		c.sumA += r[1].Int()
		c.sumB += r[2].Int()
	case kJoinK:
		c.sumA, c.sumB = r[0].Int(), r[1].Int()
	}
}

// done closes the check: row counts and checksums against the oracle.
func (c *rowCheck) done() error {
	o := c.o
	switch c.op.Kind {
	case kRead:
		if c.n != 1 {
			c.bad("read id %d: %d rows", c.op.Args[0], c.n)
		}
	case kAgg, kJoin:
		want := 0
		for _, a := range o.grouped[c.op.Args[0]] {
			if a.count > 0 {
				want++
			}
		}
		if c.n != want {
			c.bad("%s: %d groups, want %d", c.op.Kind, c.n, want)
		}
	case kStream:
		i := o.below(c.op.Args[0])
		if c.n != i || c.sumA != o.preID[i] || c.sumB != o.preVal[i] {
			c.bad("stream: got (n=%d,ids=%d,vals=%d), want (%d,%d,%d)", c.n, c.sumA, c.sumB, i, o.preID[i], o.preVal[i])
		}
	case kSort, kGroupK, kJoinK:
		i, n := o.below(c.op.Args[0]), o.sz.Fact
		rows, ids, vals, ws := int64(n-i), o.preID[n]-o.preID[i], o.preVal[n]-o.preVal[i], o.preW[n]-o.preW[i]
		switch c.op.Kind {
		case kSort:
			if int64(c.n) != rows || c.sumA != ids {
				c.bad("sort: got (n=%d,ids=%d), want (%d,%d)", c.n, c.sumA, rows, ids)
			}
		case kGroupK:
			if c.n > o.sz.Keys || c.sumA != rows || c.sumB != vals {
				c.bad("groupk: got (groups=%d,count=%d,sum=%d), want (<=%d,%d,%d)", c.n, c.sumA, c.sumB, o.sz.Keys, rows, vals)
			}
		case kJoinK:
			if c.n != 1 || c.sumA != rows || c.sumB != ws {
				c.bad("joink: got (n=%d,count=%d,w=%d), want (1,%d,%d)", c.n, c.sumA, c.sumB, rows, ws)
			}
		}
	}
	if c.fail > 0 {
		return fmt.Errorf("wrong result: %s", c.why)
	}
	return nil
}

package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"stagedb/internal/value"
)

// TestUpdateRejectsDuplicatePrimaryKey: an UPDATE that moves a row onto a
// key another live row holds fails, as an INSERT of that key does, and
// leaves the table as it was; an UPDATE that keeps its key, or moves it to
// a free one, succeeds. Keys are checked row by row against the latest
// state, so shifting adjacent keys up by one collides.
func TestUpdateRejectsDuplicatePrimaryKey(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20)")
	if _, err := execSQL(t, s, "UPDATE t SET id = 2 WHERE id = 1"); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("UPDATE onto a taken key: err %v, want a duplicate primary key", err)
	}
	if got := idsOf(t, mustExec(t, s, "SELECT id FROM t ORDER BY id")); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("ids after the refused UPDATE: %v, want [1 2]", got)
	}
	if res := mustExec(t, s, "SELECT v FROM t WHERE id = 2"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("probe of id 2: %v, want one row with v 20", res.Rows)
	}
	mustExec(t, s, "UPDATE t SET v = v + 1 WHERE id = 2")
	mustExec(t, s, "UPDATE t SET id = 2, v = 22 WHERE id = 2")
	if res := mustExec(t, s, "UPDATE t SET id = 3 WHERE id = 1"); res.Affected != 1 {
		t.Fatalf("UPDATE onto a free key affected %d rows", res.Affected)
	}
	if _, err := execSQL(t, s, "UPDATE t SET id = id + 1"); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("shifting keys 2, 3 up by one: err %v, want a duplicate primary key", err)
	}
	res := mustExec(t, s, "SELECT id, v FROM t ORDER BY id")
	if got := fmt.Sprint(res.Rows); got != "[(2, 22) (3, 10)]" {
		t.Fatalf("rows: %s, want [(2, 22) (3, 10)]", got)
	}
}

// TestInsertValuesConstantForms: a VALUES item takes every constant form a
// WHERE clause takes, `?` arguments included, and a column name in it is
// an unknown column.
func TestInsertValuesConstantForms(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE iv (id INT PRIMARY KEY, v INT, s TEXT)")
	f := NewStaged(db, StagedConfig{})
	defer f.Close()
	cases := []struct {
		q    string
		args []value.Value
		want string // the row inserted, as SELECT renders it
	}{
		{"INSERT INTO iv VALUES (1, -(2*3), 'a')", nil, "(1, -6, 'a')"},
		{"INSERT INTO iv VALUES (2, 7 % 4, NULL)", nil, "(2, 3, NULL)"},
		{"INSERT INTO iv (s, id) VALUES ('b' , 3)", nil, "(3, NULL, 'b')"},
		{"INSERT INTO iv VALUES (4, ? * 2, ?)", []value.Value{value.NewInt(5), value.NewText("c")}, "(4, 10, 'c')"},
	}
	for i, c := range cases {
		req := newRequest(t, s, c.q)
		req.Args = c.args
		if err := f.Submit(req); err != nil {
			t.Fatal(err)
		}
		if _, err := req.Wait(); err != nil {
			t.Fatalf("%s %v: %v", c.q, c.args, err)
		}
		res := mustExec(t, s, fmt.Sprintf("SELECT id, v, s FROM iv WHERE id = %d", i+1))
		if got := fmt.Sprint(res.Rows); got != "["+c.want+"]" {
			t.Errorf("%s %v: row %s, want %s", c.q, c.args, got, c.want)
		}
	}
	if _, err := execSQL(t, s, "INSERT INTO iv VALUES (id, 1, 'x')"); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("VALUES (id): err %v, want an unknown column", err)
	}
}

// TestInsertUpdateDeleteOracle runs random INSERTs, UPDATEs (of values, of
// keys onto free and onto taken keys, of key ranges), DELETEs, explicit
// transactions that commit or roll back, and VACUUMs against a map oracle,
// in memory and on a durable database reopened mid-run (cleanly or by
// abandoning it, an open transaction then lost). After every step a full
// scan and a primary-key probe of every key must equal the oracle, a
// duplicate key must be refused, and after a VACUUM or a reopen the heap
// must hold exactly the oracle's rows. STAGEDB_SEED picks one seed:
//
//	STAGEDB_SEED=<seed> go test ./internal/engine -run TestInsertUpdateDeleteOracle
func TestInsertUpdateDeleteOracle(t *testing.T) {
	for _, seedV := range mvccSeeds(t, 1, 2) {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/durable=%v", seedV, durable), func(t *testing.T) {
				t.Logf("rng seed %d (set STAGEDB_SEED to override)", seedV)
				o := &dmlOracle{t: t, rng: rand.New(rand.NewSource(seedV)), rows: map[int64]dmlRow{}, seen: map[string]int{}}
				if durable {
					o.dir = t.TempDir()
				}
				o.open()
				mustExec(t, o.s, "CREATE TABLE d (id INT PRIMARY KEY, v INT, w TEXT)")
				mustExec(t, o.s, "CREATE INDEX d_v ON d (v)")
				const steps = 160
				for i := 0; i < steps; i++ {
					o.step(i, durable && i == steps/2)
					o.check(i)
				}
				defer func() { t.Logf("outcomes: %v", o.seen) }()
				if !durable {
					return
				}
				o.reopen(false)
				o.check(steps)
				if err := o.db.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// dmlKeys bounds the keys INSERT picks and range UPDATEs shift; shifted
// keys stay below 2*dmlKeys.
const dmlKeys = 16

type dmlRow struct {
	v int64
	w string
}

// dmlOracle is one run of TestInsertUpdateDeleteOracle: the database under
// test, its session, and the rows it must hold; saved is the state at the
// open transaction's BEGIN (nil outside one).
type dmlOracle struct {
	t     *testing.T
	rng   *rand.Rand
	dir   string // data dir of a durable run; "" in memory
	db    *DB
	s     *Session
	rows  map[int64]dmlRow
	saved map[int64]dmlRow
	seen  map[string]int // outcomes by kind, logged at the end of a run
}

func (o *dmlOracle) open() {
	if o.dir == "" {
		o.db = NewDB(Config{})
	} else {
		o.db = openDurable(o.t, o.dir)
	}
	o.s = o.db.NewSession()
}

// reopen closes the database (or abandons it, a crash) and opens it again:
// an open transaction is lost either way.
func (o *dmlOracle) reopen(crash bool) {
	if !crash {
		if err := o.db.Close(); err != nil {
			o.t.Fatalf("close: %v", err)
		}
	}
	o.open()
	if o.saved != nil {
		o.rows, o.saved = o.saved, nil
		o.seen["txn lost by reopen"]++
	}
	if crash {
		o.seen["crash and reopen"]++
	} else {
		o.seen["close and reopen"]++
	}
	o.checkHeap("reopen")
}

// exec runs q and checks its outcome: wantErr "" means success affecting
// affected rows; otherwise the error must contain wantErr. A failed
// statement undoes only itself: an open transaction goes on, and half the
// time commits at once, keeping its writes from before the failure.
func (o *dmlOracle) exec(q string, affected int64, wantErr string) {
	o.t.Helper()
	res, err := execSQL(o.t, o.s, q)
	if wantErr == "" {
		if err != nil {
			o.t.Fatalf("%s: %v", q, err)
		}
		if res.Affected != affected {
			o.t.Fatalf("%s: affected %d rows, want %d", q, res.Affected, affected)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		o.t.Fatalf("%s: err %v, want %q", q, err, wantErr)
	}
	o.seen[wantErr]++
	if o.saved != nil && o.rng.Intn(2) == 0 {
		mustExec(o.t, o.s, "COMMIT")
		o.saved = nil
		o.seen["commit after a failed statement"]++
	}
}

// constText renders v (0 <= v < 10) as one of the constant forms VALUES
// takes, each evaluating to v.
func (o *dmlOracle) constText(v int64) string {
	switch o.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%d + 0", v)
	case 1:
		return fmt.Sprintf("-(%d)", -v)
	case 2:
		return fmt.Sprintf("(%d * 3) %% 1000 / 3", v)
	}
	return fmt.Sprint(v)
}

const dupKey = "duplicate primary key"

// step applies one random operation to the database and the oracle; reopen
// forces a reopen of a durable run.
func (o *dmlOracle) step(i int, reopen bool) {
	rng := o.rng
	key := func() int64 { return int64(rng.Intn(dmlKeys)) }
	switch r := rng.Intn(100); {
	case reopen || (o.dir != "" && r < 3):
		o.reopen(rng.Intn(2) == 0)
	case r < 28:
		ks := []int64{key()}
		if rng.Intn(3) == 0 {
			ks = append(ks, key())
		}
		vals := make([]string, len(ks))
		vs := make([]int64, len(ks))
		ok := true
		for j, k := range ks {
			vs[j] = int64(rng.Intn(10))
			vals[j] = fmt.Sprintf("(%d, %s, 'w%d')", k, o.constText(vs[j]), i)
			_, taken := o.rows[k]
			ok = ok && !taken && (j == 0 || k != ks[0])
		}
		q := "INSERT INTO d VALUES " + strings.Join(vals, ", ")
		if !ok {
			o.exec(q, 0, dupKey)
			return
		}
		o.exec(q, int64(len(ks)), "")
		for j, k := range ks {
			o.rows[k] = dmlRow{v: vs[j], w: fmt.Sprintf("w%d", i)}
		}
	case r < 40:
		k := key()
		q := fmt.Sprintf("UPDATE d SET v = v + 1, w = 'u%d' WHERE id = %d", i, k)
		if row, ok := o.rows[k]; ok {
			o.exec(q, 1, "")
			o.rows[k] = dmlRow{v: row.v + 1, w: fmt.Sprintf("u%d", i)}
		} else {
			o.exec(q, 0, "")
		}
	case r < 48:
		x := int64(rng.Intn(10))
		var n int64
		for k, row := range o.rows {
			if row.v == x {
				o.rows[k] = dmlRow{v: row.v + 1, w: row.w}
				n++
			}
		}
		o.exec(fmt.Sprintf("UPDATE d SET v = v + 1 WHERE v = %d", x), n, "")
	case r < 62:
		from, to := key(), key()
		if rng.Intn(2) == 0 {
			to += dmlKeys
		}
		q := fmt.Sprintf("UPDATE d SET id = %d WHERE id = %d", to, from)
		row, ok := o.rows[from]
		_, taken := o.rows[to]
		switch {
		case !ok:
			o.exec(q, 0, "")
		case from != to && taken:
			o.exec(q, 0, dupKey)
		default:
			o.exec(q, 1, "")
			delete(o.rows, from)
			o.rows[to] = row
		}
	case r < 68:
		// Shift [lo, lo+width) up by delta >= width: old and new keys are
		// disjoint, so whether a new key is taken does not depend on the
		// order the rows are written in.
		lo, width := key(), int64(1+rng.Intn(4))
		delta := width + int64(rng.Intn(dmlKeys-int(width)))
		q := fmt.Sprintf("UPDATE d SET id = id + %d WHERE id >= %d AND id < %d", delta, lo, lo+width)
		moved := map[int64]dmlRow{}
		clash := false
		for k := lo; k < lo+width; k++ {
			if row, ok := o.rows[k]; ok {
				moved[k+delta] = row
				_, taken := o.rows[k+delta]
				clash = clash || taken
			}
		}
		if clash {
			o.exec(q, 0, dupKey)
			return
		}
		o.exec(q, int64(len(moved)), "")
		for k := lo; k < lo+width; k++ {
			delete(o.rows, k)
		}
		maps.Copy(o.rows, moved)
	case r < 80:
		if rng.Intn(2) == 0 {
			k := int64(rng.Intn(2 * dmlKeys))
			var n int64
			if _, ok := o.rows[k]; ok {
				n = 1
			}
			o.exec(fmt.Sprintf("DELETE FROM d WHERE id = %d", k), n, "")
			delete(o.rows, k)
			return
		}
		x := int64(6 + rng.Intn(8))
		var n int64
		for k, row := range o.rows {
			if row.v >= x {
				delete(o.rows, k)
				n++
			}
		}
		o.exec(fmt.Sprintf("DELETE FROM d WHERE v >= %d", x), n, "")
	case r < 92:
		switch {
		case o.saved == nil:
			mustExec(o.t, o.s, "BEGIN")
			o.saved = maps.Clone(o.rows)
		case rng.Intn(2) == 0:
			mustExec(o.t, o.s, "COMMIT")
			o.saved = nil
		default:
			mustExec(o.t, o.s, "ROLLBACK")
			o.rows, o.saved = o.saved, nil
			o.seen["rollback"]++
		}
	default:
		if o.saved != nil {
			return
		}
		if _, err := o.db.Vacuum(o.t.Context()); err != nil {
			o.t.Fatalf("vacuum: %v", err)
		}
		o.checkHeap("vacuum")
		o.seen["vacuum"]++
	}
}

// checkHeap requires the heap to hold exactly the oracle's rows: as many
// live versions, and no dead one (after a VACUUM with no snapshot open, or
// a recovery).
func (o *dmlOracle) checkHeap(after string) {
	o.t.Helper()
	live, dead, err := o.db.TableVersions("d")
	if err != nil {
		o.t.Fatal(err)
	}
	if live != int64(len(o.rows)) || dead != 0 {
		o.t.Fatalf("after %s: %d live and %d dead versions, want %d and 0", after, live, dead, len(o.rows))
	}
}

// check compares a full scan and a primary-key probe of every key with the
// oracle, and outside a transaction the heap's live versions too.
func (o *dmlOracle) check(step int) {
	o.t.Helper()
	res := mustExec(o.t, o.s, "SELECT id, v, w FROM d")
	got := make(map[int64]dmlRow, len(res.Rows))
	for _, row := range res.Rows {
		if _, dup := got[row[0].Int()]; dup {
			o.t.Fatalf("step %d: id %d scanned twice", step, row[0].Int())
		}
		got[row[0].Int()] = dmlRow{v: row[1].Int(), w: row[2].Text()}
	}
	if !maps.Equal(got, o.rows) {
		o.t.Fatalf("step %d: scan %v, oracle %v", step, got, o.rows)
	}
	for k := int64(0); k < 2*dmlKeys; k++ {
		res := mustExec(o.t, o.s, fmt.Sprintf("SELECT id, v, w FROM d WHERE id = %d", k))
		row, ok := o.rows[k]
		switch {
		case !ok && len(res.Rows) != 0:
			o.t.Fatalf("step %d: probe of absent id %d returned %v", step, k, res.Rows)
		case ok && (len(res.Rows) != 1 || res.Rows[0][0].Int() != k || res.Rows[0][1].Int() != row.v || res.Rows[0][2].Text() != row.w):
			o.t.Fatalf("step %d: probe of id %d returned %v, want %v", step, k, res.Rows, row)
		}
	}
	if o.saved == nil {
		live, _, err := o.db.TableVersions("d")
		if err != nil {
			o.t.Fatal(err)
		}
		if live != int64(len(o.rows)) {
			o.t.Fatalf("step %d: %d live versions, oracle holds %d rows", step, live, len(o.rows))
		}
	}
}

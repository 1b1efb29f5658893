package workload

import (
	"strings"
	"testing"
	"time"

	"stagedb"
)

func TestWisconsinLoadAndQuery(t *testing.T) {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecContext(t.Context(), WisconsinDDL("tenk")); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range WisconsinRows("tenk", 500, 1, 100) {
		if _, err := db.ExecContext(t.Context(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("tenk"); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecContext(t.Context(), "SELECT COUNT(*) FROM tenk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 500 {
		t.Fatalf("count: %v", res.Rows)
	}
	// unique1 is a permutation: COUNT(DISTINCT)-style check via GROUP BY.
	res, err = db.ExecContext(t.Context(), "SELECT COUNT(*) FROM tenk WHERE two = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 250 {
		t.Fatalf("two=0 count: %v", res.Rows)
	}
	res, err = db.ExecContext(t.Context(), "SELECT MIN(unique1), MAX(unique1) FROM tenk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 || res.Rows[0][1].Int() != 499 {
		t.Fatalf("unique1 bounds: %v", res.Rows)
	}
}

func TestQueryGenDeterministicAndParseable(t *testing.T) {
	a1 := NewWorkloadA("tenk", 10000, 7)
	a2 := NewWorkloadA("tenk", 10000, 7)
	for i := 0; i < 50; i++ {
		q1, q2 := a1.Next(), a2.Next()
		if q1 != q2 {
			t.Fatal("same seed diverged")
		}
		if !strings.HasPrefix(q1, "SELECT") {
			t.Fatalf("bad query: %s", q1)
		}
	}
	b := NewWorkloadB("tenk", 10000, 7)
	sawJoin := false
	for i := 0; i < 20; i++ {
		if strings.Contains(b.Next(), "JOIN") {
			sawJoin = true
		}
	}
	if !sawJoin {
		t.Fatal("workload B should generate joins")
	}
}

func TestWorkloadBRunsOnEngine(t *testing.T) {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tbl := range []string{"wtab", "wtab2"} {
		if _, err := db.ExecContext(t.Context(), WisconsinDDL(tbl)); err != nil {
			t.Fatal(err)
		}
		for _, stmt := range WisconsinRows(tbl, 200, 2, 100) {
			if _, err := db.ExecContext(t.Context(), stmt); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Analyze(tbl); err != nil {
			t.Fatal(err)
		}
	}
	g := NewWorkloadB("wtab", 200, 3)
	for i := 0; i < 5; i++ {
		if _, err := db.ExecContext(t.Context(), g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	ga := NewWorkloadA("wtab", 200, 3)
	for i := 0; i < 5; i++ {
		if _, err := db.ExecContext(t.Context(), ga.Next()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobProfiles(t *testing.T) {
	mods := NewSimModules()
	a := JobsA(50, 1, mods)
	if len(a) != 50 {
		t.Fatal("jobs A count")
	}
	for _, j := range a {
		var cpu time.Duration
		io := int64(0)
		for _, seg := range j.Segments {
			cpu += seg.CPU
			io += seg.IOBytes
		}
		if cpu < 2*time.Millisecond || cpu > 5*time.Millisecond {
			t.Fatalf("A cpu=%v outside profile", cpu)
		}
		if io == 0 {
			t.Fatal("A jobs must do I/O")
		}
	}
	b := JobsB(50, 1, mods)
	for _, j := range b {
		var cpu time.Duration
		for _, seg := range j.Segments {
			cpu += seg.CPU
		}
		if cpu < 2*time.Second || cpu > 3*time.Second {
			t.Fatalf("B cpu=%v outside 2-3s profile", cpu)
		}
		if j.PrivateBytes <= a[0].PrivateBytes {
			t.Fatal("B jobs carry bigger private state than A")
		}
	}
}

package engine

import (
	"fmt"
	"sync"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// These integration tests exercise cross-module behaviour: planner + storage
// + transactions + both front ends together, including failure injection
// (crashes mid-transaction, deadlock storms) and plan changes driven by
// statistics.

func loadStars(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE stars (id INT PRIMARY KEY, name TEXT, mag FLOAT, con INT)`)
	mustExec(t, s, `CREATE TABLE cons (id INT PRIMARY KEY, cname TEXT)`)
	for c := 0; c < 10; c++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO cons VALUES (%d, 'con%d')", c, c))
	}
	for i := 0; i < n; i += 50 {
		stmt := "INSERT INTO stars VALUES "
		for j := i; j < i+50 && j < n; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 's%d', %d.%d, %d)", j, j, j%7, j%10, j%10)
		}
		mustExec(t, s, stmt)
	}
}

func TestJoinAfterDeletesAndUpdates(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	loadStars(t, s, 300)
	mustExec(t, s, "DELETE FROM stars WHERE id % 3 = 0")
	mustExec(t, s, "UPDATE stars SET con = 0 WHERE id < 30")
	if err := db.Analyze("stars"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT c.cname, COUNT(*) FROM stars st JOIN cons c ON st.con = c.id
		GROUP BY c.cname ORDER BY c.cname`)
	var total int64
	for _, row := range res.Rows {
		total += row[1].Int()
	}
	// 300 - 100 deleted = 200 remain; every one joins a constellation.
	if total != 200 {
		t.Fatalf("join total %d, want 200: %v", total, res.Rows)
	}
}

func TestIndexScanConsistentAfterChurn(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	loadStars(t, s, 200)
	mustExec(t, s, "CREATE INDEX idx_mag ON stars (mag)")
	// Churn: delete, reinsert, update through several rounds.
	for round := 0; round < 3; round++ {
		mustExec(t, s, fmt.Sprintf("DELETE FROM stars WHERE id BETWEEN %d AND %d", round*20, round*20+9))
		for j := round * 20; j < round*20+10; j++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO stars VALUES (%d, 'r%d', 3.5, %d)", j, j, j%10))
		}
		mustExec(t, s, fmt.Sprintf("UPDATE stars SET mag = 9.9 WHERE id = %d", round*20))
	}
	db.Analyze("stars")
	// The planner should use the index for this point query...
	stmt := sql.MustParse("SELECT id FROM stars WHERE mag = 9.9").(*sql.Select)
	node, err := db.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.(*plan.Project); !ok {
		t.Fatalf("unexpected plan root %T", node)
	}
	// ...and index answers must equal a forced sequential scan.
	viaIndex := mustExec(t, s, "SELECT id FROM stars WHERE mag = 9.9 ORDER BY id")
	db.SetPlanOptions(plan.Options{DisableIndex: true})
	viaSeq := mustExec(t, s, "SELECT id FROM stars WHERE mag = 9.9 ORDER BY id")
	db.SetPlanOptions(plan.Options{})
	if len(viaIndex.Rows) != len(viaSeq.Rows) || len(viaIndex.Rows) != 3 {
		t.Fatalf("index (%d) vs seq (%d) rows, want 3", len(viaIndex.Rows), len(viaSeq.Rows))
	}
	for i := range viaIndex.Rows {
		if viaIndex.Rows[i][0].Int() != viaSeq.Rows[i][0].Int() {
			t.Fatalf("row %d differs: %v vs %v", i, viaIndex.Rows[i], viaSeq.Rows[i])
		}
	}
}

func TestDeadlockStormKeepsInvariant(t *testing.T) {
	// Many clients transfer between random account pairs in both lock
	// orders; deadlock victims abort and roll back. Money is conserved.
	db := NewDB(Config{})
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	const accts = 4 // few accounts -> frequent conflicts
	for i := 0; i < accts; i++ {
		mustExec(t, setup, fmt.Sprintf("INSERT INTO acct VALUES (%d, 1000)", i))
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 25; i++ {
				from := (c + i) % accts
				to := (c + i + 1 + i%2) % accts
				if from == to {
					continue
				}
				ok := true
				for _, q := range []string{
					"BEGIN",
					fmt.Sprintf("UPDATE acct SET bal = bal - 1 WHERE id = %d", from),
					fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", to),
				} {
					if _, err := execSQL(t, s, q); err != nil {
						ok = false
						if s.InTxn() {
							execSQL(t, s, "ROLLBACK")
						}
						break
					}
				}
				if ok {
					if _, err := execSQL(t, s, "COMMIT"); err != nil {
						t.Errorf("commit: %v", err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res := mustExec(t, db.NewSession(), "SELECT SUM(bal) FROM acct")
	if res.Rows[0][0].Int() != accts*1000 {
		t.Fatalf("money not conserved: %v", res.Rows)
	}
}

func TestStatsChangePlans(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE big (id INT PRIMARY KEY, k INT)")
	mustExec(t, s, "CREATE TABLE small (id INT PRIMARY KEY, k INT)")
	for i := 0; i < 200; i += 50 {
		stmt := "INSERT INTO big VALUES "
		for j := i; j < i+50; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %d)", j, j%20)
		}
		mustExec(t, s, stmt)
	}
	mustExec(t, s, "INSERT INTO small VALUES (1, 1), (2, 2)")
	mustExec(t, s, "CREATE TABLE mid (id INT PRIMARY KEY, k INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO mid VALUES (%d, %d)", i, i%20))
	}
	db.Analyze("big")
	db.Analyze("small")
	db.Analyze("mid")
	// Greedy join order starts from the smallest relation (reordering only
	// engages for three or more relations; with two, the hash build side
	// already lands on the smaller input).
	stmt := sql.MustParse(
		"SELECT COUNT(*) FROM big b, mid m, small sm WHERE b.k = sm.k AND m.k = sm.k").(*sql.Select)
	node, err := db.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	explain := plan.Explain(node)
	// The left (first) scan should be the small table.
	var firstScan string
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			walk(j.L)
			return
		}
		if sc, ok := n.(*plan.SeqScan); ok && firstScan == "" {
			firstScan = sc.Table.Name
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(node)
	if firstScan != "small" {
		t.Fatalf("join order should start from the small table, got %q:\n%s", firstScan, explain)
	}
}

func TestWideRowsAndManyColumns(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE wide (a INT, b TEXT, c FLOAT, d BOOL, e TEXT, f INT, g TEXT, h FLOAT)`)
	long := ""
	for i := 0; i < 200; i++ {
		long += "x"
	}
	mustExec(t, s, fmt.Sprintf("INSERT INTO wide VALUES (1, '%s', 1.5, TRUE, NULL, -7, '', 0.0)", long))
	res := mustExec(t, s, "SELECT b, e, g FROM wide")
	if res.Rows[0][0].Text() != long || !res.Rows[0][1].IsNull() || res.Rows[0][2].Text() != "" {
		t.Fatalf("wide row round trip: %v", res.Rows)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE e (id INT PRIMARY KEY, boss INT)")
	mustExec(t, s, "INSERT INTO e VALUES (1, 0), (2, 1), (3, 1), (4, 2)")
	res := mustExec(t, s, `SELECT a.id, b.id FROM e a JOIN e b ON a.boss = b.id ORDER BY a.id`)
	if len(res.Rows) != 3 { // employees 2,3,4 have bosses in the table
		t.Fatalf("self join rows: %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[0][1].Int() != 1 {
		t.Fatalf("first pair: %v", res.Rows[0])
	}
}

func TestStagedEngineUnderWriteContention(t *testing.T) {
	db, _ := seed(t)
	staged := NewStaged(db, StagedConfig{Workers: 8})
	defer staged.Close()
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 10; i++ {
				req := &Request{Session: sess, Ctx: t.Context(), Done: make(chan struct{}), Script: []string{
					"BEGIN",
					"UPDATE accounts SET balance = balance + 1 WHERE id = 1",
					"UPDATE accounts SET balance = balance - 1 WHERE id = 3",
					"COMMIT",
				}}
				if err := staged.Submit(req); err != nil {
					t.Error(err)
					return
				}
				req.Wait()
			}
		}(c)
	}
	wg.Wait()
	res := mustExec(t, db.NewSession(), "SELECT SUM(balance) FROM accounts")
	if res.Rows[0][0].Float() != 350 { // 100+50+200 unchanged in total
		t.Fatalf("sum: %v", res.Rows)
	}
}

func TestValuesRoundTripAllTypes(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE v (i INT, f FLOAT, t TEXT, b BOOL)")
	mustExec(t, s, "INSERT INTO v VALUES (-9223372036854775807, 2.5e10, 'it''s', FALSE)")
	res := mustExec(t, s, "SELECT i, f, t, b FROM v")
	row := res.Rows[0]
	if row[0].Int() != -9223372036854775807 {
		t.Fatalf("int: %v", row[0])
	}
	if row[1].Float() != 2.5e10 {
		t.Fatalf("float: %v", row[1])
	}
	if row[2].Text() != "it's" {
		t.Fatalf("text: %v", row[2])
	}
	if row[3].Bool() {
		t.Fatalf("bool: %v", row[3])
	}
	_ = value.Row{}
}

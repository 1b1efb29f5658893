package stagedb

import (
	"strings"
	"sync"
	"testing"
)

func TestOpenStagedQuickstart(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), `
		CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
		INSERT INTO t VALUES (1, 'ann'), (2, 'bob');
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecContext(t.Context(), "SELECT name FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "bob" {
		t.Fatalf("rows: %v", res.Rows)
	}
	if len(db.Stages()) == 0 {
		t.Fatal("staged engine should expose stage monitors")
	}
}

func TestOpenThreadedSameResults(t *testing.T) {
	for _, mode := range []Mode{Staged, Threaded} {
		db := mustOpen(t, Options{Mode: mode, Workers: 3})
		if err := db.ExecScript(t.Context(), `
			CREATE TABLE n (v INT);
			INSERT INTO n VALUES (3), (1), (2);
		`); err != nil {
			t.Fatal(err)
		}
		res, err := db.ExecContext(t.Context(), "SELECT v FROM n ORDER BY v DESC")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 || res.Rows[0][0].Int() != 3 {
			t.Fatalf("mode %d rows: %v", mode, res.Rows)
		}
		if mode == Threaded {
			// One query stage, execute, and no operator stage: the rest of
			// \stages is the pseudo-stages (wal too when durable).
			var names []string
			for _, st := range db.Stages() {
				names = append(names, st.Name)
				if st.Name == "execute" && st.Workers != 3 {
					t.Fatalf("threaded execute stage has %d workers, want 3", st.Workers)
				}
			}
			if got := strings.TrimSuffix(strings.Join(names, " "), " wal"); got != "execute pagepool prepare spill mvcc" {
				t.Fatalf("threaded stages: %s", got)
			}
		}
		db.Close()
	}
}

func TestConnTransactions(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), "CREATE TABLE acct (id INT, bal INT); INSERT INTO acct VALUES (1, 100)"); err != nil {
		t.Fatal(err)
	}
	c := db.Conn()
	for _, q := range []string{"BEGIN", "UPDATE acct SET bal = 0", "ROLLBACK"} {
		if _, err := c.ExecContext(t.Context(), q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.ExecContext(t.Context(), "SELECT bal FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("rollback lost: %v", res.Rows)
	}
}

func TestConcurrentConns(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), "CREATE TABLE c (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn := db.Conn()
			for i := 0; i < 8; i++ {
				if _, err := conn.ExecContext(t.Context(),
					// Distinct ids per goroutine.
					"INSERT INTO c VALUES ("+itoa(g*100+i)+")"); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := db.ExecContext(t.Context(), "SELECT COUNT(*) FROM c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 32 {
		t.Fatalf("count: %v", res.Rows)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestExplain(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), "CREATE TABLE e (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	out, err := db.Explain("SELECT v FROM e WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndexScan") {
		t.Fatalf("primary-key lookup should use the index:\n%s", out)
	}
	// The scan reads v only (the key range is the index's work), and says so.
	if !strings.Contains(out, "cols=[v]") {
		t.Fatalf("EXPLAIN should show the scan's decoded column subset:\n%s", out)
	}
	if out, err = db.Explain("SELECT * FROM e"); err != nil || strings.Contains(out, "cols=") {
		t.Fatalf("a scan decoding every column prints no cols=: %v\n%s", err, out)
	}
	if _, err := db.Explain("INSERT INTO e VALUES (1, 1)"); err == nil {
		t.Fatal("EXPLAIN of DML should fail")
	}
}

func TestExecScriptErrorsNameStatement(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	err := db.ExecScript(t.Context(), "CREATE TABLE s (id INT); INSERT INTO nope VALUES (1)")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("script error should name the failing statement: %v", err)
	}
}

func TestSplitScriptRespectsStrings(t *testing.T) {
	parts := splitScript("INSERT INTO t VALUES ('a;b'); SELECT 1 FROM t;")
	if len(parts) != 2 || !strings.Contains(parts[0], "a;b") {
		t.Fatalf("split: %q", parts)
	}
}

// TestSplitScriptCommentsAndQuotes pins the two lexical edge cases the old
// splitter got wrong: a semicolon (or quote) inside a `-- ...` line comment
// must not split (or toggle string state), and a doubled quote (”) is an
// escaped quote inside the string, not a close-then-open.
func TestSplitScriptCommentsAndQuotes(t *testing.T) {
	parts := splitScript("SELECT 1 FROM t -- trailing; don't split\nWHERE id = 2; SELECT 2 FROM t;")
	if len(parts) != 2 {
		t.Fatalf("comment split: %q", parts)
	}
	if !strings.Contains(parts[0], "WHERE id = 2") || !strings.Contains(parts[0], "don't") {
		t.Fatalf("comment must stay inside its statement: %q", parts)
	}

	parts = splitScript("INSERT INTO t VALUES ('it''s; fine'); SELECT 1 FROM t;")
	if len(parts) != 2 {
		t.Fatalf("escaped-quote split: %q", parts)
	}
	if !strings.Contains(parts[0], "it''s; fine") {
		t.Fatalf("doubled quote must survive verbatim: %q", parts[0])
	}

	// Comment-only segments are not statements: a script ending in a
	// comment (or made only of comments) must not produce unparsable parts.
	if parts := splitScript("-- nothing here;\n"); len(parts) != 0 {
		t.Fatalf("comment-only script: %q", parts)
	}
	if parts := splitScript("SELECT 1 FROM t;\n-- done\n"); len(parts) != 1 {
		t.Fatalf("trailing comment script: %q", parts)
	}
}

// TestExecScriptWithCommentsAndEscapes runs a script through the engine end
// to end: comments and escaped quotes must parse and execute.
func TestExecScriptWithCommentsAndEscapes(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), `
		-- schema; one table
		CREATE TABLE notes (id INT, body TEXT);
		INSERT INTO notes VALUES (1, 'it''s a; note'); -- trailing comment
		INSERT INTO notes VALUES (2, 'plain');
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecContext(t.Context(), "SELECT body FROM notes WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "it's a; note" {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestExecSchedulerOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"pooled", Options{ExecWorkers: 2, ExecQueueDepth: 4}},
		{"defaults", Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := mustOpen(t, tc.opts)
			defer db.Close()
			if err := db.ExecScript(t.Context(), `
				CREATE TABLE t (id INT PRIMARY KEY, grp INT);
				INSERT INTO t VALUES (1, 1), (2, 1), (3, 2), (4, 2), (5, 3);
			`); err != nil {
				t.Fatal(err)
			}
			res, err := db.ExecContext(t.Context(), "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 3 {
				t.Fatalf("got %d groups, want 3", len(res.Rows))
			}
			snaps := db.Stages()
			var execStages int
			for _, s := range snaps {
				switch s.Name {
				case "fscan", "aggr", "sort", "exec":
					execStages++
				}
			}
			if execStages == 0 {
				t.Fatal("Stages() shows no execution-engine stages")
			}
			if tc.opts.ExecWorkers > 0 {
				for _, s := range snaps {
					if s.Name == "fscan" && s.Workers != tc.opts.ExecWorkers {
						t.Fatalf("fscan workers = %d, want %d", s.Workers, tc.opts.ExecWorkers)
					}
				}
			}
		})
	}
}

// mustOpen opens a database or fails the test.
func mustOpen(tb testing.TB, opts Options) *DB {
	tb.Helper()
	db, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

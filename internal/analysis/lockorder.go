package analysis

// lockorder machine-checks the engine's multi-lock hierarchy. PRs 7-9 left
// four lock classes that can nest: the server's admission mutex, the
// transaction manager's table locks, the engine's checkpoint quiesce lock
// (ckptMu), and the storage pool/store mutexes. The canonical order is
//
//	admission < table lock < ckptMu < pool/store
//
// and the class of bug behind PR 8's abort-path deadlock is exactly an
// acquisition against that order while another thread acquires with it. The
// analyzer runs the shared may-held dataflow (lockset.go) per function, so
// branches and loops are covered, and reports
//
//   - rank inversions: acquiring a lower-ranked class while a higher-ranked
//     one is held,
//   - recursive acquisition: re-acquiring a held mutex class on some path
//     (LockManager table locks are exempt — they are resource-keyed and the
//     manager handles re-entrancy per transaction),
//
// and accumulates a static acquisition graph across the package; same-rank
// edges that form a cycle (Pool.mu vs Store.mu taken in both orders, say)
// are reported even though no rank is violated.

import (
	"go/ast"
	"go/token"
	"sort"
)

// LockOrder reports lock acquisitions that inversely nest the engine's lock
// hierarchy, recursive mutex acquisition, and same-rank acquisition cycles.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "check the static lock-acquisition graph over admission.mu, table locks, DB.ckptMu, " +
		"and the storage pool/store mutexes: report rank inversions " +
		"(canonical order admission < table lock < ckptMu < pool/store), recursive acquisition, " +
		"and same-rank cycles",
	Run: runLockOrder,
}

// lockClass is one tracked lock in the hierarchy.
type lockClass struct {
	key  string // display name and graph node id
	rank int
	// reentrant marks resource-keyed locks where re-acquisition while held
	// is the manager's business, not a bug.
	reentrant bool
}

var lockClasses = []*lockClass{
	{key: "admission.mu", rank: 0},
	{key: "table lock", rank: 1, reentrant: true},
	{key: "DB.ckptMu", rank: 2},
	{key: "Pool.mu", rank: 3},
	{key: "Store.mu", rank: 3},
}

// mutexFields maps (pkg suffix, type, field) to the lock class guarded by
// that sync.Mutex/RWMutex field.
var mutexFields = map[[3]string]string{
	{"server", "admission", "mu"}: "admission.mu",
	{"engine", "DB", "ckptMu"}:    "DB.ckptMu",
	{"storage", "Pool", "mu"}:     "Pool.mu",
	{"storage", "Store", "mu"}:    "Store.mu",
}

func classByKey(key string) *lockClass {
	for _, c := range lockClasses {
		if c.key == key {
			return c
		}
	}
	return nil
}

// lockEdge records "to acquired while from was held" at pos (first sighting).
type lockEdge struct {
	from, to string
}

type lockChecker struct {
	reporter
	edges map[lockEdge]token.Pos
}

func runLockOrder(pass *Pass) error {
	c := &lockChecker{reporter: reporter{pass: pass}, edges: make(map[lockEdge]token.Pos)}
	lf := &lockFlow{classify: c.classifyLockCall, acquire: c.acquire}
	lf.run(pass.Files)
	c.reportSameRankCycles()
	return nil
}

// acquire records graph edges and flags recursion and rank inversions.
func (c *lockChecker) acquire(key string, pos token.Pos, s heldSet) {
	cls := classByKey(key)
	if s[key] {
		if !cls.reentrant {
			c.reportOnce(pos, key+" acquired while already held on some path (self-deadlock)")
		}
		return
	}
	for _, h := range s.sorted() {
		e := lockEdge{from: h, to: key}
		if _, seen := c.edges[e]; !seen {
			c.edges[e] = pos
		}
		if cls.rank < classByKey(h).rank {
			c.reportOnce(pos, key+" acquired while "+h+" is held: inverts the canonical lock order "+
				"(admission < table lock < ckptMu < pool/store)")
		}
	}
}

// classifyLockCall recognizes acquisitions and releases of the tracked
// classes: LockManager.Lock/ReleaseAll, and Lock/RLock/Unlock/RUnlock on the
// tracked mutex fields.
func (c *lockChecker) classifyLockCall(call *ast.CallExpr) (key string, acquire, ok bool) {
	info := c.pass.TypesInfo
	if isMethodCall(info, call, "txn", "LockManager", "Lock") {
		return "table lock", true, true
	}
	if isMethodCall(info, call, "txn", "LockManager", "ReleaseAll") {
		return "table lock", false, true
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	var isAcquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isAcquire = true
	case "Unlock", "RUnlock":
		isAcquire = false
	default:
		return "", false, false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	selInfo, recorded := info.Selections[inner]
	if !recorded {
		return "", false, false
	}
	path, typName := typeName(selInfo.Recv())
	key, tracked := mutexFields[[3]string{lastPathSegmentMatch(path), typName, inner.Sel.Name}]
	if !tracked {
		return "", false, false
	}
	return key, isAcquire, true
}

// lastPathSegmentMatch normalizes an import path to the segment the
// mutexFields table is keyed on.
func lastPathSegmentMatch(path string) string {
	for k := range mutexFields {
		if pathHasSuffix(path, k[0]) {
			return k[0]
		}
	}
	return path
}

// reportSameRankCycles reports acquisition edges between equal-rank classes
// that sit on a cycle. A cycle spanning ranks necessarily contains a rank
// inversion, already reported; equal-rank cycles are the remaining blind
// spot (Pool.mu and Store.mu taken in both orders by different functions).
func (c *lockChecker) reportSameRankCycles() {
	sameRank := make(map[string][]string)
	for e := range c.edges {
		if e.from != e.to && classByKey(e.from).rank == classByKey(e.to).rank {
			sameRank[e.from] = append(sameRank[e.from], e.to)
		}
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range sameRank[n] {
				if m == to {
					return true
				}
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	// Deterministic order: edges sorted by recorded position.
	type posEdge struct {
		e   lockEdge
		pos token.Pos
	}
	var cyclic []posEdge
	for e, pos := range c.edges {
		if e.from != e.to && classByKey(e.from).rank == classByKey(e.to).rank && reaches(e.to, e.from) {
			cyclic = append(cyclic, posEdge{e, pos})
		}
	}
	sort.Slice(cyclic, func(i, j int) bool { return cyclic[i].pos < cyclic[j].pos })
	for _, pe := range cyclic {
		c.reportOnce(pe.pos, pe.e.to+" acquired while "+pe.e.from+
			" is held, and elsewhere the opposite order occurs: lock-order cycle")
	}
}

package analysis

// dataflow.go is the generic forward-dataflow solver over cfg.go's graphs:
// a classic worklist iteration to fixpoint. Clients supply the lattice —
// clone/merge/equality over an opaque state type — plus a node transfer and
// an optional edge transfer (for condition-refined facts like "on the
// err != nil edge, the acquisition failed").
//
// The solver guarantees termination only if the client's lattice has finite
// height under Merge (every analyzer here maps a finite set of variables to
// small fact structs, so merges stabilize). Results are the states at block
// ENTRY; clients that need exit states or per-node states re-run the node
// transfers over a block, which is also how the reporting passes work: solve
// silently to fixpoint first, then walk reachable blocks once with reporting
// enabled (replay) so diagnostics come out deterministically, and through a
// reporter so each comes out exactly once.

import "go/token"

// FlowFuncs supplies the lattice and transfer functions for a forward
// dataflow over one CFG.
type FlowFuncs[S any] struct {
	// Clone returns an independent copy of s.
	Clone func(s S) S
	// Merge folds src into dst at a control-flow join, returning the result.
	Merge func(dst, src S) S
	// Equal reports whether two states carry the same facts (fixpoint test).
	Equal func(a, b S) bool
	// Node applies one block node (statement or branch-entry expression) to s.
	Node func(n any, s S) S
	// Edge, when non-nil, refines s along e (condition-sensitive facts).
	Edge func(e *Edge, s S) S
}

// ForwardFlow runs the worklist iteration and returns the fixpoint state at
// each reachable block's entry.
func ForwardFlow[S any](g *CFG, entry S, fns FlowFuncs[S]) map[*Block]S {
	in := make(map[*Block]S, len(g.RPO()))
	in[g.Entry] = entry
	seen := map[*Block]bool{g.Entry: true}

	// Worklist in RPO positions so blocks drain roughly in topological order.
	pos := make(map[*Block]int, len(g.RPO()))
	for i, b := range g.RPO() {
		pos[b] = i
	}
	inList := map[*Block]bool{g.Entry: true}
	list := []*Block{g.Entry}
	pop := func() *Block {
		best := 0
		for i := 1; i < len(list); i++ {
			if pos[list[i]] < pos[list[best]] {
				best = i
			}
		}
		b := list[best]
		list = append(list[:best], list[best+1:]...)
		inList[b] = false
		return b
	}

	for len(list) > 0 {
		b := pop()
		out := fns.Clone(in[b])
		for _, n := range b.Nodes {
			out = fns.Node(n, out)
		}
		for _, e := range b.Succs {
			s := fns.Clone(out)
			if fns.Edge != nil {
				s = fns.Edge(e, s)
			}
			succ := e.To
			if !seen[succ] {
				seen[succ] = true
				in[succ] = s
			} else {
				merged := fns.Merge(fns.Clone(in[succ]), s)
				if fns.Equal(merged, in[succ]) {
					continue
				}
				in[succ] = merged
			}
			if !inList[succ] {
				inList[succ] = true
				list = append(list, succ)
			}
		}
	}
	return in
}

// replay walks the reachable blocks once in reverse postorder from their
// fixpoint entry states, applying fns.Node: the reporting pass.
func replay[S any](g *CFG, in map[*Block]S, fns FlowFuncs[S]) {
	for _, b := range g.RPO() {
		s := fns.Clone(in[b])
		for _, n := range b.Nodes {
			s = fns.Node(n, s)
		}
	}
}

// reportKey identifies one diagnostic.
type reportKey struct {
	pos token.Pos
	msg string
}

// reporter emits each (position, message) pair once: a solved flow can reach
// one site along several paths (a leak seen around a back edge and at exit,
// the clauses of one select), and that is one diagnostic.
type reporter struct {
	pass *Pass
	seen map[reportKey]bool
}

func (r *reporter) reportOnce(pos token.Pos, msg string) {
	k := reportKey{pos, msg}
	if r.seen[k] {
		return
	}
	if r.seen == nil {
		r.seen = make(map[reportKey]bool)
	}
	r.seen[k] = true
	r.pass.Report(pos, msg)
}

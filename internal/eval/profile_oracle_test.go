package eval

import "ftroute/internal/graph"

// This file holds the plain engine exact-k enumerators that Profile and
// ProfileMixed ran before their exhaustive path became branch and
// bound: one full Diameter per fault set of size exactly k, in
// preorder. They are the oracle the bounded profile is pinned to.

// exhaustiveExact enumerates fault sets of size exactly k incrementally.
// The engine must start fault-free and is restored on return.
func (e *Engine) exhaustiveExact(k int) Result {
	res := Result{WorstFaults: graph.NewBitset(e.n)}
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			e.fold(&res)
			return
		}
		if e.n-start < left {
			return
		}
		for v := start; v < e.n; v++ {
			e.AddFault(v)
			rec(v+1, left-1)
			e.RemoveFault(v)
		}
	}
	rec(0, k)
	return res
}

// exhaustiveExactMixed enumerates mixed fault sets of total size exactly
// k incrementally. The engine must start fault-free and is restored on
// return.
func (e *Engine) exhaustiveExactMixed(k int, edges [][2]int) MixedResult {
	res := MixedResult{WorstNodeFaults: graph.NewBitset(e.n)}
	items := e.n + len(edges)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			e.foldMixed(&res)
			return
		}
		if items-start < left {
			return
		}
		for v := start; v < items; v++ {
			e.toggleItem(v, edges, true)
			rec(v+1, left-1)
			e.toggleItem(v, edges, false)
		}
	}
	rec(0, k)
	return res
}

// Package tree implements treefix sums on the Spatial Computer Model —
// the tree-algorithm substrate of Baumann et al. [38], which the paper's
// Section II-A discusses and improves on: their treefix sums (a
// generalization of parallel scans) take Theta(n log n) energy, and the
// paper's scan "reduces the energy cost by a factor Theta(log n) for the
// case where the tree is a path".
//
// This package closes the loop in the other direction: it reduces treefix
// sums on arbitrary rooted trees to a single segmented-scan-style pass over
// the tree's Euler tour, laid out along the Z-order curve — so *every*
// treefix inherits the paper's Theta(n) energy and O(log n) depth scan
// bounds, not only paths.
//
//   - RootfixSum: each node receives the sum over its ancestors (root-to-
//     node path, inclusive).
//   - LeaffixSum: each node receives the sum over its subtree.
//
// The Euler tour itself is derived host-side from the parent array (input
// preprocessing, like the paper's assumption that inputs arrive in a
// "predefined format") and materialized on the grid: tour entry i occupies
// the i-th PE in Z-order.
package tree

import (
	"fmt"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
)

// Tree is a rooted tree given by a parent array: Parent[v] is v's parent,
// and Parent[root] == root. Values attach per node.
type Tree struct {
	Parent []int
}

// Nodes returns the node count.
func (t Tree) Nodes() int { return len(t.Parent) }

// Validate checks that the parent array encodes a single rooted tree.
func (t Tree) Validate() error {
	n := t.Nodes()
	root := -1
	for v, p := range t.Parent {
		if p < 0 || p >= n {
			return fmt.Errorf("tree: parent[%d] = %d out of range", v, p)
		}
		if p == v {
			if root >= 0 {
				return fmt.Errorf("tree: multiple roots (%d and %d)", root, v)
			}
			root = v
		}
	}
	if root < 0 {
		return fmt.Errorf("tree: no root")
	}
	// Every node must reach the root (no cycles). Walks stop at any node
	// already proven good, so the whole check is O(n) even on path-shaped
	// trees (a per-node walk to the root is quadratic there, which at the
	// large-n tail of the sweeps means 2^40 steps).
	const (
		unknown = iota
		onPath
		ok
	)
	state := make([]uint8, n)
	state[root] = ok
	var path []int
	for v := range t.Parent {
		path = path[:0]
		u := v
		for state[u] == unknown {
			state[u] = onPath
			path = append(path, u)
			u = t.Parent[u]
		}
		if state[u] == onPath {
			return fmt.Errorf("tree: cycle reachable from node %d", v)
		}
		for _, w := range path {
			state[w] = ok
		}
	}
	return nil
}

// Root returns the root node.
func (t Tree) Root() int {
	for v, p := range t.Parent {
		if p == v {
			return v
		}
	}
	return -1
}

// children builds adjacency lists (children in node-index order, so tours
// are deterministic).
func (t Tree) children() [][]int {
	ch := make([][]int, t.Nodes())
	for v, p := range t.Parent {
		if p != v {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// eulerTour returns the 2n-1 entry Euler tour as node ids. enter[i] is true
// when entry i is the first visit of its node; for return visits (enter[i]
// false, tour[i] = the parent re-entered), exitOf[i] is the child whose
// subtree just completed (-1 on enters).
func (t Tree) eulerTour() (tour []int, enter []bool, exitOf []int) {
	ch := t.children()
	// Iterative DFS to avoid recursion limits on path-shaped trees.
	type frame struct {
		node, next int
	}
	stack := []frame{{t.Root(), 0}}
	tour = append(tour, t.Root())
	enter = append(enter, true)
	exitOf = append(exitOf, -1)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(ch[f.node]) {
			c := ch[f.node][f.next]
			f.next++
			stack = append(stack, frame{c, 0})
			tour = append(tour, c)
			enter = append(enter, true)
			exitOf = append(exitOf, -1)
		} else {
			done := f.node
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				tour = append(tour, stack[len(stack)-1].node)
				enter = append(enter, false)
				exitOf = append(exitOf, done)
			}
		}
	}
	return tour, enter, exitOf
}

// Costs: the tour has 2n-1 entries on a Theta(sqrt n) side subgrid; the
// single Z-order scan over it costs Theta(n) energy, O(log n) depth,
// O(sqrt n) distance (Lemma IV.3) — for any tree shape.

// RootfixSum returns, for every node, the sum of values over the path from
// the root to the node (inclusive). It runs one Z-order scan over the
// Euler tour in which entering a node adds its value and each return to a
// parent subtracts the completed child's value, so the prefix at a node's
// enter position is exactly the sum over its currently open ancestors —
// its rootfix sum.
func RootfixSum(m *machine.Machine, t Tree, values []float64) ([]float64, error) {
	return t.tourScan(m, values, true)
}

// LeaffixSum returns, for every node, the sum of values over its subtree
// (inclusive). With +value on enter and no contribution on exit, a node's
// subtree sum is prefix(exit) - prefix(enter) + value(node); one scan
// suffices.
func LeaffixSum(m *machine.Machine, t Tree, values []float64) ([]float64, error) {
	return t.tourScan(m, values, false)
}

func (t Tree) tourScan(m *machine.Machine, values []float64, rootfix bool) ([]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(values) != t.Nodes() {
		return nil, fmt.Errorf("tree: %d values for %d nodes", len(values), t.Nodes())
	}
	tour, enter, exitOf := t.eulerTour()
	r := grid.Square(machine.Coord{}, grid.Pow2Side(len(tour)))
	tr := grid.ZOrder(r)

	// Lay the signed tour contributions out along the Z-order curve.
	for i := 0; i < r.Size(); i++ {
		v := 0.0
		if i < len(tour) {
			if enter[i] {
				v = values[tour[i]]
			} else if rootfix {
				v = -values[exitOf[i]]
			}
		}
		m.Set(tr.At(i), "tree.v", v)
	}
	collectives.Scan(m, r, "tree.v", collectives.Add, 0.0)

	// Read out per-node results at the enter (and, for leaffix, exit)
	// positions.
	firstEnter := make([]int, t.Nodes())
	lastExit := make([]int, t.Nodes())
	for i := range firstEnter {
		firstEnter[i] = -1
	}
	for i, node := range tour {
		if enter[i] && firstEnter[node] < 0 {
			firstEnter[node] = i
		}
		lastExit[node] = i
	}
	out := make([]float64, t.Nodes())
	for v := range out {
		pe := m.Get(tr.At(firstEnter[v]), "tree.v").(float64)
		if rootfix {
			out[v] = pe
		} else {
			px := m.Get(tr.At(lastExit[v]), "tree.v").(float64)
			if firstEnter[v] == lastExit[v] { // leaf: enter == exit entry
				out[v] = values[v]
			} else {
				out[v] = px - pe + values[v]
			}
		}
	}
	grid.Clear(m, tr, "tree.v", r.Size())
	return out, nil
}

// Path returns the path tree 0 -> 1 -> ... -> n-1 rooted at 0: the shape on
// which the paper's scan improves the treefix energy by Theta(log n).
func Path(n int) Tree {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		p[i] = i - 1
	}
	return Tree{Parent: p}
}

// Balanced returns a complete binary tree with n nodes rooted at 0.
func Balanced(n int) Tree {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		p[i] = (i - 1) / 2
	}
	return Tree{Parent: p}
}

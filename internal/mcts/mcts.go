// Package mcts implements the PUCT Monte-Carlo tree search AlphaGoZero-style
// agents use, with minibatched leaf expansion: the search traverses the
// partial move-expansion tree in high-level code collecting a minibatch of
// unexpanded leaves, then evaluates them all with one neural-network
// inference — exactly the mcts_tree_search / expand_leaf structure of the
// paper's Figure 2.
package mcts

import (
	"math"
	"math/rand"

	"repro/internal/goboard"
)

// Evaluator scores a minibatch of positions: a prior over moves (length
// N²+1; the last entry is Pass) and a value in [-1, 1] from the side to
// move's perspective, for each board. What it returns may be its own
// storage, overwritten by its next call: the tree copies each prior into
// the node it builds and backs each value up before it calls again.
type Evaluator interface {
	Evaluate(boards []*goboard.Board) (priors [][]float64, values []float64)
}

// Node is one expanded position in the search tree.
type Node struct {
	board    *goboard.Board
	moves    []int // legal moves (point indices; Pass is encoded as N²)
	priors   []float64
	visits   []int
	valueSum []float64
	// children holds each move's expanded child. It stays nil until the
	// first expansion below the node, which most nodes of a search never
	// see; child and setChild read and write it.
	children []*Node
	// vloss marks in-flight virtual losses during minibatch collection.
	vloss []int
	total int
}

// Tree is one game's search tree.
type Tree struct {
	root  *Node
	eval  Evaluator
	rng   *rand.Rand
	cPUCT float64
	// BatchSize is the leaf-minibatch size for expand_leaf.
	BatchSize int
	// OnTraverse, if set, is called once per simulation during the
	// high-level tree traversal; the Minigo workload uses it to charge
	// Python time to mcts_tree_search.
	OnTraverse func()
	// RootNoise enables AlphaGoZero's Dirichlet exploration noise on the
	// root priors (ε=0.25, α=0.3), applied when a search begins at a
	// fresh root. Self-play uses it; evaluation games do not.
	RootNoise bool

	noisedRoot *Node
	legal      []int // newNode's scratch
}

// Dirichlet-noise constants from AlphaGoZero.
const (
	dirichletEpsilon = 0.25
	dirichletAlpha   = 0.3
)

// applyRootNoise mixes Dirichlet(α) noise into the root priors:
// P'(a) = (1−ε)·P(a) + ε·η(a).
func (t *Tree) applyRootNoise() {
	if !t.RootNoise || t.noisedRoot == t.root || len(t.root.priors) == 0 {
		return
	}
	t.noisedRoot = t.root
	noise := make([]float64, len(t.root.priors))
	var sum float64
	for i := range noise {
		// Gamma(α, 1) samples via Marsaglia-Tsang for α < 1 using the
		// boost Gamma(α+1)·U^(1/α).
		noise[i] = gammaSample(t.rng, dirichletAlpha)
		sum += noise[i]
	}
	if sum <= 0 {
		return
	}
	for i := range t.root.priors {
		t.root.priors[i] = float64((1-dirichletEpsilon)*t.root.priors[i]) +
			float64(dirichletEpsilon*noise[i])/sum
	}
}

// gammaSample draws from Gamma(shape, 1).
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	// Marsaglia & Tsang (2000).
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// New builds a search tree rooted at the given position.
func New(b *goboard.Board, eval Evaluator, seed int64) *Tree {
	t := &Tree{
		eval:      eval,
		rng:       rand.New(rand.NewSource(seed)),
		cPUCT:     1.5,
		BatchSize: 8,
	}
	t.root = t.expandOne(b)
	return t
}

// passMove encodes Pass in the prior vector: index N².
func passMove(n int) int { return n * n }

// moveIndex maps a board move (point or goboard.Pass) to a prior index.
func moveIndex(n, move int) int {
	if move == goboard.Pass {
		return passMove(n)
	}
	return move
}

// expandOne evaluates a single position and returns its node.
func (t *Tree) expandOne(b *goboard.Board) *Node {
	priors, _ := t.eval.Evaluate([]*goboard.Board{b})
	return t.newNode(b, priors[0])
}

func (t *Tree) newNode(b *goboard.Board, prior []float64) *Node {
	// The moves are listed into the tree's scratch first, to learn how
	// many there are. The node's moves and per-move counts then come out
	// of one int allocation and its per-move statistics out of one float
	// allocation, each slice capped at its length so that no append
	// through one reaches the next.
	t.legal = append(b.LegalMoves(t.legal[:0]), goboard.Pass)
	n := len(t.legal)
	floats, ints := make([]float64, 2*n), make([]int, 3*n)
	node := &Node{
		board:    b,
		moves:    ints[:n:n],
		priors:   floats[:n:n],
		valueSum: floats[n:],
		visits:   ints[n : 2*n : 2*n],
		vloss:    ints[2*n:],
	}
	copy(node.moves, t.legal)
	var sum float64
	for i, m := range node.moves {
		p := prior[moveIndex(b.N, m)]
		node.priors[i] = p
		sum += p
	}
	if sum > 0 {
		for i := range node.priors {
			node.priors[i] /= sum
		}
	} else {
		uniform := 1 / float64(n)
		for i := range node.priors {
			node.priors[i] = uniform
		}
	}
	return node
}

// child returns move i's expanded child, or nil.
func (n *Node) child(i int) *Node {
	if n.children == nil {
		return nil
	}
	return n.children[i]
}

// setChild records c as move i's expanded child.
func (n *Node) setChild(i int, c *Node) {
	if n.children == nil {
		n.children = make([]*Node, len(n.moves))
	}
	n.children[i] = c
}

// selectChild picks the PUCT-maximizing move index at a node.
func (n *Node) selectChild(c float64) int {
	sqrtTotal := math.Sqrt(float64(n.total) + 1)
	best, bestScore := 0, math.Inf(-1)
	for i := range n.moves {
		nv := float64(n.visits[i] + n.vloss[i])
		var q float64
		if n.visits[i] > 0 {
			q = n.valueSum[i] / float64(n.visits[i])
		}
		// Virtual loss discourages concurrent descent into the same
		// leaf while a minibatch is being collected.
		q -= float64(n.vloss[i])
		u := c * n.priors[i] * sqrtTotal / (1 + nv)
		if s := q + u; s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// pathStep records one traversal edge for backup.
type pathStep struct {
	node *Node
	mi   int
}

// Search runs nSims simulations, expanding leaves in minibatches of
// BatchSize through the Evaluator.
func (t *Tree) Search(nSims int) {
	t.applyRootNoise()
	done := 0
	for done < nSims {
		batch := t.BatchSize
		if rem := nSims - done; batch > rem {
			batch = rem
		}
		var paths [][]pathStep
		var leafBoards []*goboard.Board
		var terminalPaths [][]pathStep
		var terminalValues []float64
		for b := 0; b < batch; b++ {
			if t.OnTraverse != nil {
				t.OnTraverse()
			}
			path, leaf := t.descend()
			if leaf == nil {
				// Terminal position: value from the game result.
				last := path[len(path)-1]
				child := last.node.board.Clone()
				_ = child.Play(last.node.moves[last.mi])
				terminalPaths = append(terminalPaths, path)
				terminalValues = append(terminalValues, terminalValue(child))
				continue
			}
			paths = append(paths, path)
			leafBoards = append(leafBoards, leaf)
		}
		if len(leafBoards) > 0 {
			priors, values := t.eval.Evaluate(leafBoards)
			for i, path := range paths {
				last := path[len(path)-1]
				last.node.setChild(last.mi, t.newNode(leafBoards[i], priors[i]))
				t.backup(path, values[i])
			}
		}
		for i, path := range terminalPaths {
			t.backup(path, terminalValues[i])
		}
		done += batch
	}
}

// descend walks from the root to an unexpanded edge, applying virtual
// losses, and returns the traversal path plus the new leaf board (nil when
// the edge leads to a terminal position).
func (t *Tree) descend() ([]pathStep, *goboard.Board) {
	node := t.root
	var path []pathStep
	for {
		mi := node.selectChild(t.cPUCT)
		path = append(path, pathStep{node, mi})
		node.vloss[mi]++
		child := node.child(mi)
		if child == nil {
			next := node.board.Clone()
			_ = next.Play(node.moves[mi])
			if next.GameOver() {
				return path, nil
			}
			return path, next
		}
		node = child
	}
}

// terminalValue scores a finished game from the perspective of the side to
// move at that position.
func terminalValue(b *goboard.Board) float64 {
	winner := b.Winner(7.5)
	switch winner {
	case goboard.Empty:
		return 0
	case b.ToPlay():
		return 1
	default:
		return -1
	}
}

// backup propagates a leaf value up the path, alternating perspective.
func (t *Tree) backup(path []pathStep, leafValue float64) {
	// leafValue is from the perspective of the player to move at the
	// leaf; the edge into the leaf belongs to the opponent of that
	// player, so it starts negated.
	v := -leafValue
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		step.node.visits[step.mi]++
		step.node.valueSum[step.mi] += v
		step.node.total++
		step.node.vloss[step.mi]--
		v = -v
	}
}

// BestMove returns the move with the most visits (temperature 0), using
// priors to break ties early in search.
func (t *Tree) BestMove() int {
	best, bestN := goboard.Pass, -1
	for i, m := range t.root.moves {
		if t.root.visits[i] > bestN {
			best, bestN = m, t.root.visits[i]
		}
	}
	return best
}

// SampleMove draws a move proportional to visit counts (temperature 1),
// used for exploration in early self-play moves.
func (t *Tree) SampleMove() int {
	total := 0
	for _, v := range t.root.visits {
		total += v
	}
	if total == 0 {
		return t.BestMove()
	}
	r := t.rng.Intn(total)
	for i, v := range t.root.visits {
		r -= v
		if r < 0 {
			return t.root.moves[i]
		}
	}
	return t.BestMove()
}

// VisitPolicy returns the root visit distribution as a training target
// (length N²+1, Pass last).
func (t *Tree) VisitPolicy() []float64 {
	n := t.root.board.N
	pi := make([]float64, n*n+1)
	total := 0
	for _, v := range t.root.visits {
		total += v
	}
	if total == 0 {
		return pi
	}
	for i, m := range t.root.moves {
		pi[moveIndex(n, m)] = float64(t.root.visits[i]) / float64(total)
	}
	return pi
}

// Advance re-roots the tree after a move is played, reusing the subtree
// when present.
func (t *Tree) Advance(move int) {
	for i, m := range t.root.moves {
		if child := t.root.child(i); m == move && child != nil {
			t.root = child
			return
		}
	}
	next := t.root.board.Clone()
	_ = next.Play(move)
	t.root = t.expandOne(next)
}

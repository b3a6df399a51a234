package mcts

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/goboard"
)

// uniformEval returns flat priors and zero values — search reduces to
// visit-count bookkeeping we can verify.
type uniformEval struct{ calls, boards int }

func (u *uniformEval) Evaluate(boards []*goboard.Board) ([][]float64, []float64) {
	u.calls++
	u.boards += len(boards)
	priors := make([][]float64, len(boards))
	values := make([]float64, len(boards))
	for i, b := range boards {
		n := b.N*b.N + 1
		pr := make([]float64, n)
		for j := range pr {
			pr[j] = 1 / float64(n)
		}
		priors[i] = pr
	}
	return priors, values
}

// biasedEval prefers a specific move strongly.
type biasedEval struct {
	move  int
	value float64
}

func (e *biasedEval) Evaluate(boards []*goboard.Board) ([][]float64, []float64) {
	priors := make([][]float64, len(boards))
	values := make([]float64, len(boards))
	for i, b := range boards {
		n := b.N*b.N + 1
		pr := make([]float64, n)
		for j := range pr {
			pr[j] = 0.01
		}
		pr[e.move] = 10
		priors[i] = pr
		values[i] = e.value
	}
	return priors, values
}

func TestSearchAccumulatesVisits(t *testing.T) {
	ev := &uniformEval{}
	tree := New(goboard.New(5), ev, 1)
	tree.Search(40)
	if got := tree.root.total; got != 40 {
		t.Fatalf("root visits = %d, want 40", got)
	}
}

func TestSearchBatchesLeafEvaluations(t *testing.T) {
	ev := &uniformEval{}
	tree := New(goboard.New(5), ev, 1)
	tree.BatchSize = 8
	ev.calls, ev.boards = 0, 0 // ignore the root expansion
	tree.Search(32)
	if ev.calls == 0 {
		t.Fatal("no evaluator calls")
	}
	// Minibatching: strictly fewer calls than leaves evaluated.
	if ev.calls >= ev.boards {
		t.Fatalf("no batching: %d calls for %d boards", ev.calls, ev.boards)
	}
	avg := float64(ev.boards) / float64(ev.calls)
	if avg < 2 {
		t.Fatalf("average batch %f too small", avg)
	}
}

func TestBestMoveFollowsStrongPrior(t *testing.T) {
	b := goboard.New(5)
	target := b.Point(2, 2)
	ev := &biasedEval{move: target, value: 0.3}
	tree := New(b, ev, 2)
	tree.Search(60)
	if got := tree.BestMove(); got != target {
		t.Fatalf("BestMove = %d, want %d", got, target)
	}
}

func TestVisitPolicySumsToOne(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 3)
	tree.Search(30)
	pi := tree.VisitPolicy()
	if len(pi) != 26 {
		t.Fatalf("policy length %d, want 26", len(pi))
	}
	var sum float64
	for _, p := range pi {
		if p < 0 {
			t.Fatalf("negative visit probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("policy sums to %v", sum)
	}
}

func TestAdvanceReusesSubtree(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 4)
	tree.Search(50)
	move := tree.BestMove()
	// Find the child's visit count before advancing.
	var childVisits int
	for i, m := range tree.root.moves {
		if child := tree.root.child(i); m == move && child != nil {
			childVisits = child.total
		}
	}
	tree.Advance(move)
	if childVisits > 0 && tree.root.total != childVisits {
		t.Fatalf("subtree not reused: root visits %d, child had %d", tree.root.total, childVisits)
	}
}

func TestAdvanceUnexpandedMove(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 5)
	// Advance along a move that was never expanded — must re-root
	// cleanly.
	tree.Advance(goboard.Pass)
	if tree.root == nil {
		t.Fatal("tree lost its root")
	}
	tree.Search(10)
}

func TestVirtualLossesClearAfterSearch(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 6)
	tree.Search(64)
	for i, v := range tree.root.vloss {
		if v != 0 {
			t.Fatalf("residual virtual loss %d on move %d", v, tree.root.moves[i])
		}
	}
}

func TestOnTraverseFires(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 7)
	count := 0
	tree.OnTraverse = func() { count++ }
	tree.Search(20)
	if count != 20 {
		t.Fatalf("OnTraverse fired %d times, want 20", count)
	}
}

func TestSearchOnNearTerminalBoard(t *testing.T) {
	// Fill most of a 3x3 board so many simulations hit terminal states.
	b := goboard.New(3)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 12 && !b.GameOver(); i++ {
		moves := b.LegalMoves(nil)
		if len(moves) == 0 {
			_ = b.Play(goboard.Pass)
			continue
		}
		_ = b.Play(moves[rng.Intn(len(moves))])
	}
	if b.GameOver() {
		t.Skip("board finished during setup")
	}
	tree := New(b, &uniformEval{}, 9)
	tree.Search(30) // must not panic or hang on terminal descents
	if tree.root.total != 30 {
		t.Fatalf("visits = %d", tree.root.total)
	}
}

func TestRootNoisePerturbsPriorsOnce(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 11)
	tree.RootNoise = true
	before := append([]float64(nil), tree.root.priors...)
	tree.Search(8)
	after := append([]float64(nil), tree.root.priors...)
	changed := false
	var sum float64
	for i := range after {
		if after[i] != before[i] {
			changed = true
		}
		if after[i] < 0 {
			t.Fatalf("negative prior %v", after[i])
		}
		sum += after[i]
	}
	if !changed {
		t.Fatal("Dirichlet noise did not perturb root priors")
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("noised priors sum to %v", sum)
	}
	// A second Search at the same root must not re-noise.
	again := append([]float64(nil), tree.root.priors...)
	tree.Search(8)
	for i := range again {
		if tree.root.priors[i] != again[i] {
			t.Fatal("root re-noised on second Search")
		}
	}
}

func TestRootNoiseOffByDefault(t *testing.T) {
	tree := New(goboard.New(5), &uniformEval{}, 12)
	before := append([]float64(nil), tree.root.priors...)
	tree.Search(8)
	for i := range before {
		if tree.root.priors[i] != before[i] {
			t.Fatal("priors changed without RootNoise")
		}
	}
}

func TestGammaSamplePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []float64{0.3, 1.0, 2.5} {
		for i := 0; i < 500; i++ {
			if v := gammaSample(rng, shape); v <= 0 || math.IsNaN(v) {
				t.Fatalf("gammaSample(%v) = %v", shape, v)
			}
		}
	}
}

func TestSampleMoveIsLegal(t *testing.T) {
	b := goboard.New(5)
	tree := New(b, &uniformEval{}, 10)
	tree.Search(40)
	for i := 0; i < 20; i++ {
		m := tree.SampleMove()
		if m != goboard.Pass && !b.Legal(m) {
			t.Fatalf("sampled illegal move %d", m)
		}
	}
}

// TestNewNodeSlicesDoNotAlias writes every element of each per-move slice of
// a fresh node, and appends through each, and checks that no other slice
// saw it: the slices share two allocations, so a slice that reached past
// its length into its neighbour would corrupt the search's statistics.
func TestNewNodeSlicesDoNotAlias(t *testing.T) {
	b := goboard.New(5)
	prior := make([]float64, 26)
	for i := range prior {
		prior[i] = float64(i + 1)
	}
	tree := &Tree{}
	n := tree.newNode(b, prior)
	if len(n.moves) != 26 || n.moves[25] != goboard.Pass {
		t.Fatalf("moves = %v, want the 25 points then Pass", n.moves)
	}
	priors := append([]float64(nil), n.priors...)
	for i := range n.moves {
		n.visits[i], n.vloss[i], n.valueSum[i] = 7, 9, 11
	}
	for i := range n.moves {
		if n.priors[i] != priors[i] || n.visits[i] != 7 || n.vloss[i] != 9 || n.valueSum[i] != 11 {
			t.Fatalf("move %d: prior %v visits %d vloss %d valueSum %v after writing 7, 9 and 11", i, n.priors[i], n.visits[i], n.vloss[i], n.valueSum[i])
		}
	}
	_ = append(n.priors, -1)
	_ = append(n.visits, -1)
	_ = append(n.moves, -1)
	if n.valueSum[0] != 11 || n.vloss[0] != 9 || n.visits[0] != 7 {
		t.Fatal("an append through priors, visits or moves wrote into the next slice")
	}
	if n.children != nil || n.child(3) != nil {
		t.Fatal("a fresh node has children")
	}
	c := tree.newNode(b.Clone(), prior)
	n.setChild(3, c)
	if n.child(3) != c || n.child(2) != nil || len(n.children) != len(n.moves) {
		t.Fatal("setChild did not record the child alone")
	}
}

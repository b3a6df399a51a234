package goboard

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustPlay(t *testing.T, b *Board, points ...int) {
	t.Helper()
	for _, p := range points {
		if err := b.Play(p); err != nil {
			t.Fatalf("Play(%d): %v", p, err)
		}
	}
}

func TestSimpleCapture(t *testing.T) {
	b := New(5)
	// Black surrounds a white stone at (1,1): neighbors (0,1),(1,0),(1,2),(2,1).
	mustPlay(t, b,
		b.Point(0, 1), // B
		b.Point(1, 1), // W — the victim
		b.Point(1, 0), // B
		b.Point(4, 4), // W elsewhere
		b.Point(1, 2), // B
		b.Point(4, 3), // W elsewhere
		b.Point(2, 1), // B captures
	)
	if got := b.cells[b.Point(1, 1)]; got != Empty {
		t.Fatalf("white stone not captured: %v", got)
	}
}

func TestSuicideIllegal(t *testing.T) {
	b := New(5)
	// Black stones around (0,0): (0,1) and (1,0). White to play cannot
	// fill (0,0).
	mustPlay(t, b,
		b.Point(0, 1), // B
		b.Point(3, 3), // W
		b.Point(1, 0), // B
	)
	if b.ToPlay() != White {
		t.Fatal("expected white to move")
	}
	if b.Legal(b.Point(0, 0)) {
		t.Fatal("suicide at (0,0) reported legal")
	}
}

func TestCaptureBeatsSuicide(t *testing.T) {
	b := New(5)
	// White plays into a point with no liberties but captures first:
	// corner position — B(0,0), B(1,1) is not enough; build classic
	// snapback-like shape:
	//   . B W
	//   B W .
	//   W . .
	// White at (0,0)? (0,0) neighbors: (0,1)=B, (1,0)=B → suicide for W
	// unless capturing. Give the B(0,1) chain one liberty at (0,0) only:
	mustPlay(t, b,
		b.Point(0, 1), // B
		b.Point(0, 2), // W
		b.Point(1, 0), // B
		b.Point(1, 1), // W
		b.Point(4, 4), // B elsewhere
		b.Point(2, 0), // W
		Pass,          // B
	)
	// Now B(0,1) has one liberty at (0,0): neighbors (0,2)=W, (1,1)=W.
	// Likewise B(1,0): neighbors (1,1)=W, (2,0)=W. White playing (0,0)
	// captures both black stones despite having no liberty itself at
	// placement.
	if b.ToPlay() != White {
		t.Fatal("expected white to move")
	}
	if !b.Legal(b.Point(0, 0)) {
		t.Fatal("capturing move misclassified as suicide")
	}
	mustPlay(t, b, b.Point(0, 0))
	if b.cells[b.Point(0, 1)] != Empty || b.cells[b.Point(1, 0)] != Empty {
		t.Fatal("black stones not captured")
	}
}

func TestSimpleKoForbidden(t *testing.T) {
	b := New(5)
	// Classic ko around (1,1)/(1,2):
	//   . B W .
	//   B W . W      (white ko stone at (1,1))
	//   . B W .
	// Black captures at (1,2); white may not recapture immediately.
	mustPlay(t, b,
		b.Point(0, 1), // B
		b.Point(0, 2), // W
		b.Point(1, 0), // B
		b.Point(1, 3), // W
		b.Point(2, 1), // B
		b.Point(2, 2), // W
		b.Point(4, 4), // B elsewhere
		b.Point(1, 1), // W — the ko stone
		b.Point(1, 2), // B captures W(1,1)
	)
	if b.cells[b.Point(1, 1)] != Empty {
		t.Fatal("ko capture did not happen")
	}
	// White may not immediately recapture at (1,1).
	if b.ToPlay() != White {
		t.Fatal("expected white to move")
	}
	if b.Legal(b.Point(1, 1)) {
		t.Fatal("immediate ko recapture reported legal")
	}
	// After a ko threat elsewhere, recapture becomes legal.
	mustPlay(t, b, b.Point(4, 0)) // W elsewhere
	mustPlay(t, b, b.Point(3, 4)) // B elsewhere
	if !b.Legal(b.Point(1, 1)) {
		t.Fatal("ko recapture still illegal after intervening moves")
	}
}

func TestTwoPassesEndGame(t *testing.T) {
	b := New(5)
	mustPlay(t, b, Pass)
	if b.GameOver() {
		t.Fatal("one pass ended the game")
	}
	mustPlay(t, b, Pass)
	if !b.GameOver() {
		t.Fatal("two passes did not end the game")
	}
}

func TestAreaScoring(t *testing.T) {
	b := New(5)
	// Black wall on column 2 splits the board; black stones plus left
	// territory vs white stones on the right.
	for r := 0; r < 5; r++ {
		mustPlay(t, b, b.Point(r, 2)) // B
		if r < 4 {
			mustPlay(t, b, b.Point(r, 4)) // W
		} else {
			mustPlay(t, b, Pass)
		}
	}
	black, white := b.Score()
	// Black: 5 stones + 10 territory (cols 0-1); white: 4 stones; col 3
	// borders both → neutral.
	if black != 15 {
		t.Fatalf("black score = %v, want 15", black)
	}
	if white != 4 {
		t.Fatalf("white score = %v, want 4", white)
	}
	if b.Winner(7.5) != Black {
		t.Fatalf("winner = %v, want Black", b.Winner(7.5))
	}
}

func TestEmptyBoardScoreNeutral(t *testing.T) {
	b := New(5)
	black, white := b.Score()
	if black != 0 || white != 0 {
		t.Fatalf("empty board scored %v/%v", black, white)
	}
	if b.Winner(7.5) != White {
		t.Fatal("komi should decide an empty board")
	}
}

func TestFeaturesEncodeSideToMove(t *testing.T) {
	b := New(5)
	f := b.Features()
	if len(f) != FeatureDim(5) {
		t.Fatalf("feature dim %d, want %d", len(f), FeatureDim(5))
	}
	if f[len(f)-1] != 1 {
		t.Fatal("black-to-move bit not set")
	}
	mustPlay(t, b, b.Point(0, 0))
	f = b.Features()
	if f[len(f)-1] != 0 {
		t.Fatal("white-to-move bit wrong")
	}
	// The black stone at point 0 is now the *opponent's* stone from
	// white's perspective: second plane.
	if f[0] != 0 || f[25+0] != 1 {
		t.Fatal("planes not relative to side to move")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	b := New(5)
	c := b.Clone()
	mustPlay(t, b, b.Point(0, 0))
	if c.cells[c.Point(0, 0)] != Empty {
		t.Fatal("clone shares storage with original")
	}
}

func TestIllegalMoveRejected(t *testing.T) {
	b := New(5)
	mustPlay(t, b, b.Point(0, 0))
	if err := b.Play(b.Point(0, 0)); err == nil {
		t.Fatal("occupied point accepted")
	}
	if err := b.Play(999); err == nil {
		t.Fatal("out-of-range point accepted")
	}
}

// Property: random legal playouts never corrupt the board — every stone has
// a liberty after each move (no zombie chains).
func TestRandomPlayoutInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(5)
		for !b.GameOver() {
			moves := b.LegalMoves(nil)
			if len(moves) == 0 || rng.Intn(8) == 0 {
				if err := b.Play(Pass); err != nil {
					return false
				}
				continue
			}
			if err := b.Play(moves[rng.Intn(len(moves))]); err != nil {
				return false
			}
			// No chain may be liberty-less after a completed move.
			visited := make([]bool, b.N*b.N)
			for p := 0; p < b.N*b.N; p++ {
				if b.cells[p] == Empty || visited[p] {
					continue
				}
				if _, hasLib := b.group(p, visited); !hasLib {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveLimitEndsGame(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := New(3)
	for i := 0; i < 2*9*2+10 && !b.GameOver(); i++ {
		moves := b.LegalMoves(nil)
		if len(moves) == 0 {
			b.Play(Pass)
			continue
		}
		b.Play(moves[rng.Intn(len(moves))])
	}
	if !b.GameOver() {
		t.Fatal("game did not terminate at move limit")
	}
}

// refLegal is Legal as it was before its flood fill moved onto the stack:
// a visited slice per chain, a point slice per group and a liberty map per
// opponent chain. TestLegalMatchesReference holds Legal to it.
func refLegal(b *Board, p int) bool {
	if p == Pass {
		return true
	}
	if p < 0 || p >= len(b.cells) || b.cells[p] != Empty || p == b.koPoint {
		return false
	}
	var nbuf [4]int
	me := b.toPlay
	captures := false
	for _, nb := range b.neighbors(p, nbuf[:0]) {
		if b.cells[nb] == Empty {
			return true
		}
		if b.cells[nb] == me.Opponent() {
			visited := make([]bool, len(b.cells))
			pts, _ := b.group(nb, visited)
			libs := map[int]bool{}
			for _, gp := range pts {
				var n2 [4]int
				for _, lib := range b.neighbors(gp, n2[:0]) {
					if b.cells[lib] == Empty && lib != p {
						libs[lib] = true
					}
				}
			}
			if len(libs) == 0 {
				captures = true
			}
		}
	}
	if captures {
		return true
	}
	visited := make([]bool, len(b.cells))
	visited[p] = true
	for _, nb := range b.neighbors(p, nbuf[:0]) {
		if b.cells[nb] != me || visited[nb] {
			continue
		}
		pts, _ := b.group(nb, visited)
		for _, gp := range pts {
			var n2 [4]int
			for _, lib := range b.neighbors(gp, n2[:0]) {
				if b.cells[lib] == Empty && lib != p {
					return true
				}
			}
		}
	}
	return false
}

// TestLegalMatchesReference compares Legal and LegalMoves with refLegal at
// every point of every position of seeded random playouts on 3×3 to 9×9
// boards, which pass rarely, so the boards fill up and captures, suicide
// points and ko all occur; the counters show that they did.
func TestLegalMatchesReference(t *testing.T) {
	var captures, kos, refused int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(3 + int(seed)%7)
		for !b.GameOver() {
			var want []int
			for p := -2; p <= len(b.cells); p++ {
				got, ref := b.Legal(p), refLegal(b, p)
				if got != ref {
					t.Fatalf("seed %d, move %d: Legal(%d) = %v, reference %v\n%v", seed, b.moves, p, got, ref, b)
				}
				if ref && p >= 0 {
					want = append(want, p)
				} else if p >= 0 && p < len(b.cells) && b.cells[p] == Empty {
					refused++
				}
			}
			moves := b.LegalMoves(nil)
			if !slices.Equal(moves, want) {
				t.Fatalf("seed %d, move %d: LegalMoves = %v, reference %v", seed, b.moves, moves, want)
			}
			if b.koPoint >= 0 {
				kos++
			}
			move := Pass
			if len(moves) > 0 && rng.Intn(30) != 0 {
				move = moves[rng.Intn(len(moves))]
			}
			stones := b.stones()
			mustPlay(t, b, move)
			if move != Pass && b.stones() < stones+1 {
				captures++
			}
		}
	}
	if captures == 0 || kos == 0 || refused == 0 {
		t.Fatalf("playouts made %d captures, %d ko points and %d refused empty points: every kind must occur", captures, kos, refused)
	}
}

// stones counts the stones on the board.
func (b *Board) stones() (n int) {
	for _, c := range b.cells {
		if c != Empty {
			n++
		}
	}
	return n
}

// TestLegalAllocs pins the legality check at zero allocations, and
// LegalMoves at zero when dst has the room, appending after what dst holds.
func TestLegalAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := New(9)
	for i := 0; i < 60; i++ {
		moves := b.LegalMoves(nil)
		mustPlay(t, b, moves[rng.Intn(len(moves))])
	}
	if n := testing.AllocsPerRun(100, func() {
		for p := range b.cells {
			b.Legal(p)
		}
	}); n != 0 {
		t.Errorf("Legal over every point: %v allocations, want 0", n)
	}
	buf := make([]int, 0, len(b.cells))
	if n := testing.AllocsPerRun(100, func() { b.LegalMoves(buf[:0]) }); n != 0 {
		t.Errorf("LegalMoves into a buffer with room: %v allocations, want 0", n)
	}
	if moves := b.LegalMoves([]int{-7}); len(moves) < 2 || moves[0] != -7 {
		t.Errorf("LegalMoves did not append to dst: %v", moves)
	}
}

// group flood-fills the chain containing p, returning its points and
// whether it has at least one liberty: the flood fill Legal and Play used
// before theirs moved onto the stack, kept as the references' own.
func (b *Board) group(p int, visited []bool) (points []int, hasLiberty bool) {
	color := b.cells[p]
	stack := []int{p}
	visited[p] = true
	var nbuf [4]int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		points = append(points, cur)
		for _, nb := range b.neighbors(cur, nbuf[:0]) {
			switch {
			case b.cells[nb] == Empty:
				hasLiberty = true
			case b.cells[nb] == color && !visited[nb]:
				visited[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return points, hasLiberty
}

// refPlay is Play's point move as it was before its flood fills moved onto
// the stack: a visited slice per neighbouring opponent chain and a group
// and liberty map for the ko check. TestPlayMatchesReference holds Play to
// it.
func refPlay(b *Board, p int) {
	me := b.toPlay
	b.cells[p] = me
	var nbuf [4]int
	capturedTotal := 0
	lastCaptured := -1
	for _, nb := range b.neighbors(p, nbuf[:0]) {
		if b.cells[nb] != me.Opponent() {
			continue
		}
		visited := make([]bool, len(b.cells))
		pts, hasLib := b.group(nb, visited)
		if !hasLib {
			for _, cp := range pts {
				b.cells[cp] = Empty
				capturedTotal++
				lastCaptured = cp
			}
		}
	}
	b.koPoint = -1
	if capturedTotal == 1 {
		pts, _ := b.group(p, make([]bool, len(b.cells)))
		libs := map[int]bool{}
		for _, gp := range pts {
			for _, nb := range b.neighbors(gp, nbuf[:0]) {
				if b.cells[nb] == Empty {
					libs[nb] = true
				}
			}
		}
		if len(pts) == 1 && len(libs) == 1 {
			b.koPoint = lastCaptured
		}
	}
	b.passes = 0
	b.moves++
	b.toPlay = me.Opponent()
}

// TestPlayMatchesReference plays seeded random playouts on 3×3 to 9×9
// boards and, before every point move, plays it on a clone with refPlay:
// the two boards must then agree on every stone, the ko point and
// the side to move. The counters show that captures and ko occurred.
func TestPlayMatchesReference(t *testing.T) {
	var captures, kos int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(3 + int(seed)%7)
		for !b.GameOver() {
			moves := b.LegalMoves(nil)
			if len(moves) == 0 || rng.Intn(30) == 0 {
				mustPlay(t, b, Pass)
				continue
			}
			move := moves[rng.Intn(len(moves))]
			ref := b.Clone()
			refPlay(ref, move)
			stones := b.stones()
			mustPlay(t, b, move)
			if !slices.Equal(b.cells, ref.cells) || b.koPoint != ref.koPoint ||
				b.toPlay != ref.toPlay || b.moves != ref.moves || b.passes != ref.passes {
				t.Fatalf("seed %d, move %d at %d: Play gives\n%vko %d, reference\n%vko %d",
					seed, b.moves, move, b, b.koPoint, ref, ref.koPoint)
			}
			if b.stones() < stones+1 {
				captures++
			}
			if b.koPoint >= 0 {
				kos++
			}
		}
	}
	if captures == 0 || kos == 0 {
		t.Fatalf("playouts made %d captures and %d ko points: both must occur", captures, kos)
	}
}

// TestPlayAllocs pins a point move at zero allocations, with a capture and
// the ko check that follows it: on a 5×5 board black's stone at 7 takes
// white's lone stone at 6 and is left with one liberty, 6, which becomes
// the ko point.
//
//	. B W . .
//	B W . W .
//	. B W . .
func TestPlayAllocs(t *testing.T) {
	start := New(5)
	mustPlay(t, start, 1, 6, 5, 2, 11, 12, Pass, 8)
	b := start.Clone()
	if n := testing.AllocsPerRun(100, func() {
		copy(b.cells, start.cells)
		b.koPoint, b.toPlay, b.moves = start.koPoint, start.toPlay, start.moves
		if err := b.Play(7); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Play with a capture: %v allocations, want 0", n)
	}
	if b.cells[6] != Empty || b.koPoint != 6 {
		t.Fatalf("black at 7 left ko point %d, want 6 with 6 captured\n%v", b.koPoint, b)
	}
}

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

func TestZobristHashUpdatesIncrementally(t *testing.T) {
	b := New(5)
	h0 := b.hash
	mustPlay(t, b, b.Point(2, 2))
	h1 := b.hash
	if h0 == h1 {
		t.Fatal("hash unchanged after move")
	}
	// Rebuild the same position from scratch: hash must match.
	b2 := New(5)
	mustPlay(t, b2, b2.Point(2, 2))
	if b2.hash != h1 {
		t.Fatal("hash not a pure function of position")
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
// a liberty after each move (no zombie chains), and hashes stay consistent
// with a from-scratch recount.
func TestRandomPlayoutInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(5)
		for !b.GameOver() {
			moves := b.LegalMoves()
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
		moves := b.LegalMoves()
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
			moves := b.LegalMoves()
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

// TestLegalAllocs pins the legality check at zero allocations and
// LegalMoves at one, the result with its room for Pass.
func TestLegalAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := New(9)
	for i := 0; i < 60; i++ {
		moves := b.LegalMoves()
		mustPlay(t, b, moves[rng.Intn(len(moves))])
	}
	if n := testing.AllocsPerRun(100, func() {
		for p := range b.cells {
			b.Legal(p)
		}
	}); n != 0 {
		t.Errorf("Legal over every point: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.LegalMoves() }); n != 1 {
		t.Errorf("LegalMoves: %v allocations, want 1", n)
	}
	if moves := b.LegalMoves(); cap(moves) == len(moves) {
		t.Errorf("LegalMoves: no room for Pass (len %d, cap %d)", len(moves), cap(moves))
	}
}

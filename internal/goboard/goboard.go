// Package goboard implements the rules of the game of Go on small boards:
// legal move generation, capture, the simple-ko rule, suicide prohibition,
// area (Tromp-Taylor) scoring, and Zobrist hashing. It is the game substrate
// for the Minigo scale-up case study (paper §4.3): AlphaGoZero-style
// self-play needs a real board, real legality checks, and real outcomes.
package goboard

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// Color of a stone or player.
type Color int8

// Colors. Empty doubles as "no stone".
const (
	Empty Color = iota
	Black
	White
)

// Opponent returns the other player.
func (c Color) Opponent() Color {
	switch c {
	case Black:
		return White
	case White:
		return Black
	default:
		return Empty
	}
}

// String returns B/W/. for display.
func (c Color) String() string {
	switch c {
	case Black:
		return "B"
	case White:
		return "W"
	default:
		return "."
	}
}

// Pass is the move index meaning "pass".
const Pass = -1

// Board is an N×N Go position with move history state (ko, captures).
type Board struct {
	N      int
	cells  []Color
	toPlay Color
	// koPoint is the point illegal due to simple ko (-1 when none).
	koPoint int
	// consecutive passes end the game.
	passes int
	moves  int
	hash   uint64
	zob    *zobrist
}

// zobrist holds the hashing table for one board size.
type zobrist struct {
	table [][2]uint64 // per point, per color
	turn  uint64
}

var (
	zobMu    sync.Mutex
	zobCache = map[int]*zobrist{}
)

// zobristFor returns the shared hashing table for one board size. Boards
// are created concurrently by Minigo's self-play workers, so the cache is
// guarded.
func zobristFor(n int) *zobrist {
	zobMu.Lock()
	defer zobMu.Unlock()
	if z, ok := zobCache[n]; ok {
		return z
	}
	rng := rand.New(rand.NewSource(0x60B0A4D + int64(n)))
	z := &zobrist{table: make([][2]uint64, n*n), turn: rng.Uint64()}
	for i := range z.table {
		z.table[i][0] = rng.Uint64()
		z.table[i][1] = rng.Uint64()
	}
	zobCache[n] = z
	return z
}

// New creates an empty board with Black to play.
func New(n int) *Board {
	if n < 3 || n > 19 {
		panic(fmt.Sprintf("goboard: unsupported board size %d", n))
	}
	return &Board{
		N:       n,
		cells:   make([]Color, n*n),
		toPlay:  Black,
		koPoint: -1,
		zob:     zobristFor(n),
	}
}

// Clone deep-copies the position (MCTS expands on clones).
func (b *Board) Clone() *Board {
	c := *b
	c.cells = append([]Color(nil), b.cells...)
	return &c
}

// ToPlay returns the player to move.
func (b *Board) ToPlay() Color { return b.toPlay }

// Moves returns the number of moves played (including passes).
func (b *Board) Moves() int { return b.moves }

// Point converts row/col to a point index.
func (b *Board) Point(row, col int) int { return row*b.N + col }

// neighbors appends p's orthogonal neighbors to buf.
func (b *Board) neighbors(p int, buf []int) []int {
	row, col := p/b.N, p%b.N
	if row > 0 {
		buf = append(buf, p-b.N)
	}
	if row < b.N-1 {
		buf = append(buf, p+b.N)
	}
	if col > 0 {
		buf = append(buf, p-1)
	}
	if col < b.N-1 {
		buf = append(buf, p+1)
	}
	return buf
}

// group flood-fills the chain containing p, returning its points and
// whether it has at least one liberty.
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

// maxPoints is the point count of the largest board New accepts (19×19).
const maxPoints = 19 * 19

// Legal reports whether the move is legal for the side to play. It
// allocates nothing: the flood fills run over arrays on the stack.
func (b *Board) Legal(p int) bool {
	if p == Pass {
		return true
	}
	if p < 0 || p >= len(b.cells) || b.cells[p] != Empty || p == b.koPoint {
		return false
	}
	// A point with an empty neighbor cannot be suicide.
	var nbuf [4]int
	nbs := b.neighbors(p, nbuf[:0])
	for _, nb := range nbs {
		if b.cells[nb] == Empty {
			return true
		}
	}
	// Every neighbor is a stone: the move is legal when it captures an
	// opponent chain whose last liberty is p, or joins a friendly chain
	// that keeps a liberty besides p. Chains are disjoint, so one visited
	// set serves every neighbor, and a neighbor in a chain already filled
	// has had its answer.
	var visited [maxPoints]bool
	for _, nb := range nbs {
		if visited[nb] {
			continue
		}
		free := b.libertyBesides(nb, p, &visited)
		if free == (b.cells[nb] == b.toPlay) {
			return true
		}
	}
	return false
}

// libertyBesides flood-fills the chain containing p, marking all of it in
// visited, and reports whether it has a liberty other than point skip.
func (b *Board) libertyBesides(p, skip int, visited *[maxPoints]bool) (free bool) {
	color := b.cells[p]
	var stack [maxPoints]int16
	stack[0] = int16(p)
	top := 1
	visited[p] = true
	var nbuf [4]int
	for top > 0 {
		top--
		for _, nb := range b.neighbors(int(stack[top]), nbuf[:0]) {
			switch c := b.cells[nb]; {
			case c == Empty:
				free = free || nb != skip
			case c == color && !visited[nb]:
				visited[nb] = true
				stack[top] = int16(nb)
				top++
			}
		}
	}
	return free
}

// libertiesAfterRemoval counts the liberties of the chain containing p,
// treating point removed as occupied.
func (b *Board) libertiesAfterRemoval(p, occupied int) int {
	visited := make([]bool, len(b.cells))
	pts, _ := b.group(p, visited)
	libs := map[int]bool{}
	var nbuf [4]int
	for _, gp := range pts {
		for _, nb := range b.neighbors(gp, nbuf[:0]) {
			if b.cells[nb] == Empty && nb != occupied {
				libs[nb] = true
			}
		}
	}
	return len(libs)
}

// Play executes a move (or Pass) for the side to play. It returns an error
// for illegal moves. Game over is reported by GameOver after two passes.
func (b *Board) Play(p int) error {
	if p == Pass {
		b.passes++
		b.moves++
		b.koPoint = -1
		b.toPlay = b.toPlay.Opponent()
		return nil
	}
	if !b.Legal(p) {
		return fmt.Errorf("goboard: illegal move %d for %v", p, b.toPlay)
	}
	me := b.toPlay
	b.place(p, me)
	// Capture opponent chains left without liberties.
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
				b.remove(cp)
				capturedTotal++
				lastCaptured = cp
			}
		}
	}
	// Simple ko: single-stone capture by a single stone with no other
	// liberties makes the captured point immediately illegal.
	b.koPoint = -1
	if capturedTotal == 1 {
		visited := make([]bool, len(b.cells))
		pts, _ := b.group(p, visited)
		if len(pts) == 1 && b.libertiesAfterRemoval(p, -1) == 1 {
			b.koPoint = lastCaptured
		}
	}
	b.passes = 0
	b.moves++
	b.toPlay = me.Opponent()
	return nil
}

func (b *Board) place(p int, c Color) {
	b.cells[p] = c
	b.hash ^= b.zob.table[p][c-1]
}

func (b *Board) remove(p int) {
	c := b.cells[p]
	b.cells[p] = Empty
	b.hash ^= b.zob.table[p][c-1]
}

// GameOver reports whether two consecutive passes ended the game (or the
// move limit was hit — 2·N² moves, as Minigo enforces).
func (b *Board) GameOver() bool {
	return b.passes >= 2 || b.moves >= 2*b.N*b.N
}

// LegalMoves returns all legal point moves for the side to play (Pass is
// always additionally legal). The result has room for one more element, so
// appending Pass to it does not copy it.
func (b *Board) LegalMoves() []int {
	out := make([]int, 0, len(b.cells)+1)
	for p := range b.cells {
		if b.Legal(p) {
			out = append(out, p)
		}
	}
	return out
}

// Score returns Tromp-Taylor area scores: (black, white). komi is added to
// white by the caller.
func (b *Board) Score() (black, white float64) {
	visited := make([]bool, len(b.cells))
	var nbuf [4]int
	for p, c := range b.cells {
		switch c {
		case Black:
			black++
		case White:
			white++
		case Empty:
			if visited[p] {
				continue
			}
			// Flood-fill the empty region; it scores for a color
			// iff it borders only that color.
			stack := []int{p}
			visited[p] = true
			var region []int
			bordersBlack, bordersWhite := false, false
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				region = append(region, cur)
				for _, nb := range b.neighbors(cur, nbuf[:0]) {
					switch b.cells[nb] {
					case Black:
						bordersBlack = true
					case White:
						bordersWhite = true
					case Empty:
						if !visited[nb] {
							visited[nb] = true
							stack = append(stack, nb)
						}
					}
				}
			}
			if bordersBlack && !bordersWhite {
				black += float64(len(region))
			} else if bordersWhite && !bordersBlack {
				white += float64(len(region))
			}
		}
	}
	return black, white
}

// Winner returns the winning color under the given komi (added to White);
// Empty means a tie (impossible for fractional komi).
func (b *Board) Winner(komi float64) Color {
	black, white := b.Score()
	white += komi
	switch {
	case black > white:
		return Black
	case white > black:
		return White
	default:
		return Empty
	}
}

// Features encodes the position as a flat float vector for the policy/value
// network: two planes (own stones, opponent stones) plus a side-to-move bit.
func (b *Board) Features() []float64 {
	n2 := len(b.cells)
	out := make([]float64, 2*n2+1)
	me := b.toPlay
	for p, c := range b.cells {
		switch c {
		case me:
			out[p] = 1
		case me.Opponent():
			out[n2+p] = 1
		}
	}
	if me == Black {
		out[2*n2] = 1
	}
	return out
}

// FeatureDim returns len(Features()) for an N×N board.
func FeatureDim(n int) int { return 2*n*n + 1 }

// String renders the board for debugging.
func (b *Board) String() string {
	var sb strings.Builder
	for r := 0; r < b.N; r++ {
		for c := 0; c < b.N; c++ {
			sb.WriteString(b.cells[b.Point(r, c)].String())
			if c < b.N-1 {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

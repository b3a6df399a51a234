// Package goboard implements the rules of the game of Go on small boards:
// legal move generation, capture, the simple-ko rule, suicide prohibition
// and area (Tromp-Taylor) scoring. It is the game substrate for the Minigo
// scale-up case study (paper §4.3): AlphaGoZero-style self-play needs a real
// board, real legality checks, and real outcomes.
package goboard

import (
	"fmt"
	"strings"
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
	var chain [maxPoints]int16
	for _, nb := range nbs {
		if visited[nb] {
			continue
		}
		_, free := b.fill(nb, p, &visited, &chain)
		if free == (b.cells[nb] == b.toPlay) {
			return true
		}
	}
	return false
}

// fill flood-fills the chain containing p into chain, marking all of it in
// visited, and returns the chain's size and whether it has a liberty other
// than point skip.
func (b *Board) fill(p, skip int, visited *[maxPoints]bool, chain *[maxPoints]int16) (n int, free bool) {
	color := b.cells[p]
	chain[0] = int16(p)
	n = 1
	visited[p] = true
	var nbuf [4]int
	for i := 0; i < n; i++ {
		for _, nb := range b.neighbors(int(chain[i]), nbuf[:0]) {
			switch c := b.cells[nb]; {
			case c == Empty:
				free = free || nb != skip
			case c == color && !visited[nb]:
				visited[nb] = true
				chain[n] = int16(nb)
				n++
			}
		}
	}
	return n, free
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
	b.cells[p] = me
	// Capture opponent chains left without liberties. Chains are disjoint,
	// so one visited set serves every neighbor; the flood fills run over
	// arrays on the stack, as Legal's do.
	var nbuf [4]int
	var visited [maxPoints]bool
	var chain [maxPoints]int16
	nbs := b.neighbors(p, nbuf[:0])
	capturedTotal := 0
	lastCaptured := -1
	for _, nb := range nbs {
		if b.cells[nb] != me.Opponent() || visited[nb] {
			continue
		}
		if n, free := b.fill(nb, -1, &visited, &chain); !free {
			for _, cp := range chain[:n] {
				b.cells[cp] = Empty
				capturedTotal++
				lastCaptured = int(cp)
			}
		}
	}
	// Simple ko: single-stone capture by a single stone with no other
	// liberties makes the captured point immediately illegal. The new
	// stone is a chain of its own when no neighbor is friendly, and then
	// its liberties are its empty neighbors.
	b.koPoint = -1
	if capturedTotal == 1 {
		libs, alone := 0, true
		for _, nb := range nbs {
			switch b.cells[nb] {
			case Empty:
				libs++
			case me:
				alone = false
			}
		}
		if alone && libs == 1 {
			b.koPoint = lastCaptured
		}
	}
	b.passes = 0
	b.moves++
	b.toPlay = me.Opponent()
	return nil
}

// GameOver reports whether two consecutive passes ended the game (or the
// move limit was hit — 2·N² moves, as Minigo enforces).
func (b *Board) GameOver() bool {
	return b.passes >= 2 || b.moves >= 2*b.N*b.N
}

// LegalMoves appends every legal point move for the side to play to dst and
// returns the result (Pass is always additionally legal). It allocates only
// when dst runs out of room.
func (b *Board) LegalMoves(dst []int) []int {
	for p := range b.cells {
		if b.Legal(p) {
			dst = append(dst, p)
		}
	}
	return dst
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
	out := make([]float64, FeatureDim(b.N))
	b.FeaturesInto(out)
	return out
}

// FeaturesInto writes Features into dst, which holds FeatureDim(b.N)
// elements, overwriting every one.
func (b *Board) FeaturesInto(dst []float64) {
	n2 := len(b.cells)
	dst = dst[:2*n2+1]
	clear(dst)
	me := b.toPlay
	for p, c := range b.cells {
		switch c {
		case me:
			dst[p] = 1
		case me.Opponent():
			dst[n2+p] = 1
		}
	}
	if me == Black {
		dst[2*n2] = 1
	}
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

// Package minigo reproduces the paper's scale-up case study workload
// (§4.3, Appendix B.2): an AlphaGoZero-style training pipeline with three
// phases per generation —
//
//  1. self-play: N parallel worker processes play Go against themselves,
//     each running minibatched MCTS leaf evaluations on the shared GPU;
//  2. SGD-updates: the collected (position, visit-policy, outcome) examples
//     train a candidate policy/value network;
//  3. evaluation: the candidate plays the current model; the winner becomes
//     the next generation.
//
// The paper's Minigo plays 19×19 Go with 16 workers for thousands of
// seconds; this reproduction defaults to 9×9 with the same 16-worker
// structure, preserving the finding that per-worker GPU time is a tiny
// fraction of per-worker runtime even while a sampled utilization monitor
// reads ~100% (F.11). A product that feeds an add is written float64(x*y),
// which forbids the compiler to fuse the two (arm64 would).
package minigo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/backend"
	"repro/internal/cuda"
	"repro/internal/goboard"
	"repro/internal/gpu"
	"repro/internal/mcts"
	"repro/internal/nn"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Config sizes the pipeline. The defaults scale the paper's workload down
// to simulation-friendly sizes while keeping its structure.
type Config struct {
	BoardSize       int
	Workers         int
	GamesPerWorker  int
	SimsPerMove     int
	LeafBatch       int
	MaxMovesPerGame int
	EvalGames       int
	TrainBatch      int
	TrainSteps      int
	Seed            int64
	Flags           trace.FeatureFlags
}

// DefaultConfig returns the scaled-down Minigo configuration.
func DefaultConfig() Config {
	return Config{
		BoardSize:       9,
		Workers:         16,
		GamesPerWorker:  1,
		SimsPerMove:     24,
		LeafBatch:       8,
		MaxMovesPerGame: 40,
		EvalGames:       4,
		TrainBatch:      32,
		TrainSteps:      16,
		Seed:            1,
		Flags:           trace.Uninstrumented(),
	}
}

// Example is one self-play training example.
type Example struct {
	Features []float64
	Policy   []float64
	// Outcome is +1 if the side to move at this position won, −1 if it
	// lost, 0 for a tie.
	Outcome float64
}

// Result is the outcome of one pipeline generation.
type Result struct {
	Trace *trace.Trace
	// WorkerTotal and WorkerGPU give each self-play worker's total
	// runtime and GPU-busy time (the Figure 8 bars).
	WorkerTotal map[trace.ProcID]vclock.Duration
	WorkerGPU   map[trace.ProcID]vclock.Duration
	// Busy is the device's busy ledger for utilization sampling.
	Busy []gpu.Busy
	// Span is the virtual extent of the self-play phase.
	SpanStart, SpanEnd vclock.Time
	// Examples collected, Promoted reports whether the candidate won
	// evaluation.
	Examples int
	Promoted bool
}

// pvnet is the policy/value network: one trunk MLP whose output packs
// N²+1 policy logits plus a value scalar.
type pvnet struct {
	net *backend.Network
	n   int
}

func newPVNet(rng *rand.Rand, name string, boardSize int) *pvnet {
	in := goboard.FeatureDim(boardSize)
	out := boardSize*boardSize + 2
	return &pvnet{
		net: backend.NewNetwork(rng, name, []int{in, 64, 64, out}, nn.ReLU, nn.Identity),
		n:   boardSize,
	}
}

// evaluator runs pvnet inference through a backend with the paper's
// annotation structure: callers wrap Evaluate in the expand_leaf operation.
type evaluator struct {
	b    *backend.Backend
	sess *profiler.Session
	pv   *pvnet
}

// Evaluate implements mcts.Evaluator: one batched inference per leaf
// minibatch, annotated as expand_leaf (paper Figure 2).
func (e *evaluator) Evaluate(boards []*goboard.Board) ([][]float64, []float64) {
	x := nn.NewTensor(len(boards), goboard.FeatureDim(e.pv.n))
	for i, bd := range boards {
		copy(x.Row(i), bd.Features())
	}
	var out *nn.Tensor
	e.sess.WithOperation("expand_leaf", func() {
		e.b.Compute("minigo/predict", backend.KindInference, func(c *backend.Comp) {
			c.Feed(x)
			out = c.Forward(e.pv.net, x)
			c.Fetch(out)
		})
	})
	nPolicy := e.pv.n*e.pv.n + 1
	priors := make([][]float64, len(boards))
	values := make([]float64, len(boards))
	for i := range boards {
		row := out.Row(i)
		logits := nn.FromVec(row[:nPolicy])
		priors[i] = nn.Softmax(logits).Row(0)
		values[i] = math.Tanh(row[nPolicy])
	}
	return priors, values
}

// traverseCost is the high-level Python time one MCTS tree traversal
// spends walking the move-expansion tree (paper Figure 2's
// mcts_tree_search). Python MCTS is slow — several hundred microseconds per
// simulation — which is precisely why self-play workers barely use the GPU
// (paper F.11: 20 s of GPU execution in a 5080 s worker).
var traverseCost = vclock.Jittered(300*vclock.Microsecond, 0.25)

// Run executes one generation of the pipeline and returns its result.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 || cfg.BoardSize < 3 {
		return nil, fmt.Errorf("minigo: invalid config %+v", cfg)
	}
	p := profiler.New(profiler.Options{
		Workload: "minigo",
		Flags:    cfg.Flags,
		Seed:     cfg.Seed,
	})
	dev := gpu.NewDevice(-1)

	trainer := p.NewProcess("trainer", -1, 0)
	trainerCtx := cuda.NewContext(trainer, dev, cuda.DefaultCosts())
	trainerBackend := backend.New(trainer, trainerCtx, backend.Graph)

	rng := rand.New(rand.NewSource(cfg.Seed))
	current := newPVNet(rng, "pv_current", cfg.BoardSize)

	// Trainer-side setup time before forking workers.
	trainer.Python(vclock.Jittered(2*vclock.Millisecond, 0.1))
	forkAt := trainer.Clock().Now()

	// --- Phase 1: parallel self-play ---
	res := &Result{
		WorkerTotal: map[trace.ProcID]vclock.Duration{},
		WorkerGPU:   map[trace.ProcID]vclock.Duration{},
		SpanStart:   forkAt,
	}
	// Workers run on their own goroutines, sharing the device exactly as
	// the paper's 16 self-play processes share one GPU. Sessions are
	// created up front (process fork), and per-worker results are
	// collected by slot so the pipeline stays deterministic regardless
	// of goroutine scheduling.
	sessions := make([]*profiler.Session, cfg.Workers)
	for w := range sessions {
		sessions[w] = p.NewProcess(fmt.Sprintf("selfplay_worker_%d", w), trainer.Proc(), forkAt)
	}
	perWorker := make([][]Example, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sessions[w]
			ctx := cuda.NewContext(sess, dev, cuda.DefaultCosts())
			b := backend.New(sess, ctx, backend.Graph)
			// Each worker plays with a copy of the current weights.
			workerNet := newPVNet(rand.New(rand.NewSource(cfg.Seed+100+int64(w))), "pv_worker", cfg.BoardSize)
			current.net.MLP.CopyTo(workerNet.net.MLP)
			ev := &evaluator{b: b, sess: sess, pv: workerNet}

			sess.SetPhase("selfplay")
			for g := 0; g < cfg.GamesPerWorker; g++ {
				exs := playGame(cfg, sess, ev, cfg.Seed+int64(w)*31+int64(g))
				perWorker[w] = append(perWorker[w], exs...)
			}
			sess.Close()
		}(w)
	}
	wg.Wait()
	var examples []Example
	var lastEnd vclock.Time
	for w, sess := range sessions {
		examples = append(examples, perWorker[w]...)
		res.WorkerTotal[sess.Proc()] = sess.Elapsed()
		if end := sess.Clock().Now(); end > lastEnd {
			lastEnd = end
		}
	}
	res.SpanEnd = lastEnd
	// Per-worker GPU time from the device ledger.
	busy := dev.BusyIntervals()
	for _, bz := range busy {
		res.WorkerGPU[bz.Proc] += bz.Duration()
	}
	res.Busy = busy
	res.Examples = len(examples)

	// Trainer waited for the self-play pool to drain (process join).
	trainer.Clock().AdvanceTo(lastEnd)

	// --- Phase 2: SGD updates propose a candidate ---
	trainer.SetPhase("sgd_updates")
	candidate := newPVNet(rand.New(rand.NewSource(cfg.Seed+999)), "pv_candidate", cfg.BoardSize)
	current.net.MLP.CopyTo(candidate.net.MLP)
	trainCandidate(cfg, trainer, trainerBackend, candidate, examples, rng)

	// --- Phase 3: evaluation chooses the next generation ---
	trainer.SetPhase("evaluation")
	wins := evaluateCandidate(cfg, trainer, trainerBackend, candidate, current)
	res.Promoted = float64(wins) > float64(cfg.EvalGames)*0.55

	trainer.Close()
	tr, err := p.Trace()
	if err != nil {
		return nil, err
	}
	res.Trace = tr
	return res, nil
}

// playGame runs one self-play game, returning its training examples.
func playGame(cfg Config, sess *profiler.Session, ev *evaluator, seed int64) []Example {
	board := goboard.New(cfg.BoardSize)
	tree := mcts.New(board, ev, seed)
	tree.BatchSize = cfg.LeafBatch
	tree.RootNoise = true // self-play explores; evaluation does not
	tree.OnTraverse = func() { sess.Python(traverseCost) }

	type pending struct {
		features []float64
		policy   []float64
		toPlay   goboard.Color
	}
	var history []pending
	for !board.GameOver() && board.Moves() < cfg.MaxMovesPerGame {
		sess.WithOperation("mcts_tree_search", func() {
			tree.Search(cfg.SimsPerMove)
		})
		history = append(history, pending{
			features: board.Features(),
			policy:   tree.VisitPolicy(),
			toPlay:   board.ToPlay(),
		})
		var move int
		if board.Moves() < 6 {
			move = tree.SampleMove()
		} else {
			move = tree.BestMove()
		}
		_ = board.Play(move)
		tree.Advance(move)
	}
	winner := board.Winner(7.5)
	out := make([]Example, len(history))
	for i, h := range history {
		z := 0.0
		if winner == h.toPlay {
			z = 1
		} else if winner != goboard.Empty {
			z = -1
		}
		out[i] = Example{Features: h.features, Policy: h.policy, Outcome: z}
	}
	return out
}

// trainCandidate runs the SGD-updates phase on the collected examples.
func trainCandidate(cfg Config, sess *profiler.Session, b *backend.Backend, cand *pvnet, examples []Example, rng *rand.Rand) {
	if len(examples) == 0 {
		return
	}
	opt := nn.NewAdam(1e-3)
	nPolicy := cfg.BoardSize*cfg.BoardSize + 1
	for step := 0; step < cfg.TrainSteps; step++ {
		batch := cfg.TrainBatch
		if batch > len(examples) {
			batch = len(examples)
		}
		x := nn.NewTensor(batch, goboard.FeatureDim(cfg.BoardSize))
		pis := make([][]float64, batch)
		zs := make([]float64, batch)
		sess.Python(vclock.Jittered(vclock.Duration(batch)*800*vclock.Nanosecond, 0.2))
		for i := 0; i < batch; i++ {
			ex := examples[rng.Intn(len(examples))]
			copy(x.Row(i), ex.Features)
			pis[i] = ex.Policy
			zs[i] = ex.Outcome
		}
		sess.WithOperation("backpropagation", func() {
			b.Compute("minigo/train_step", backend.KindBackprop, func(c *backend.Comp) {
				c.Feed(x)
				c.ZeroGrad(cand.net)
				out := c.Forward(cand.net, x)
				var grad *nn.Tensor
				c.HostLoss("minigo/loss", func() {
					grad = pvLossGrad(out, pis, zs, nPolicy)
				})
				c.Backward(cand.net, grad)
				c.AdamStepFused(cand.net, opt)
			})
		})
	}
}

// pvLossGrad computes d(policy cross-entropy + value MSE)/d(output).
func pvLossGrad(out *nn.Tensor, pis [][]float64, zs []float64, nPolicy int) *nn.Tensor {
	grad := nn.NewTensor(out.Rows, out.Cols)
	nb := float64(out.Rows)
	for i := 0; i < out.Rows; i++ {
		logits := nn.FromVec(out.Row(i)[:nPolicy])
		probs := nn.Softmax(logits).Row(0)
		// d(−Σ π log p)/dlogit_j = p_j − π_j
		for j := 0; j < nPolicy; j++ {
			grad.Set(i, j, (probs[j]-pis[i][j])/nb)
		}
		// Value head: v = tanh(raw); d(v−z)²/draw = 2(v−z)(1−v²).
		raw := out.At(i, nPolicy)
		v := math.Tanh(raw)
		grad.Set(i, nPolicy, 2*(v-zs[i])*(1-float64(v*v))/nb)
	}
	return grad
}

// evaluateCandidate plays candidate (Black) vs current (White), alternating
// colors per game, and returns the candidate's wins. The paper notes Minigo
// does not parallelize evaluation; it runs on the trainer process.
func evaluateCandidate(cfg Config, sess *profiler.Session, b *backend.Backend, cand, cur *pvnet) int {
	wins := 0
	for g := 0; g < cfg.EvalGames; g++ {
		candIsBlack := g%2 == 0
		board := goboard.New(cfg.BoardSize)
		evCand := &evaluator{b: b, sess: sess, pv: cand}
		evCur := &evaluator{b: b, sess: sess, pv: cur}
		tCand := mcts.New(board, evCand, cfg.Seed+1000+int64(g))
		tCur := mcts.New(board, evCur, cfg.Seed+2000+int64(g))
		tCand.BatchSize, tCur.BatchSize = cfg.LeafBatch, cfg.LeafBatch
		tCand.OnTraverse = func() { sess.Python(traverseCost) }
		tCur.OnTraverse = func() { sess.Python(traverseCost) }
		for !board.GameOver() && board.Moves() < cfg.MaxMovesPerGame {
			mine := tCand
			if (board.ToPlay() == goboard.Black) != candIsBlack {
				mine = tCur
			}
			var move int
			sess.WithOperation("mcts_tree_search", func() {
				mine.Search(cfg.SimsPerMove / 2)
				move = mine.BestMove()
			})
			_ = board.Play(move)
			tCand.Advance(move)
			tCur.Advance(move)
		}
		winner := board.Winner(7.5)
		if (winner == goboard.Black) == candIsBlack && winner != goboard.Empty {
			wins++
		}
	}
	return wins
}

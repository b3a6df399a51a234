package workloads

import (
	"errors"
	"maps"
	"testing"

	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/trace"
)

// agentDigestCases pins one fully instrumented trace per agent code path:
// discrete and continuous sampling for both on-policy algorithms, DDPG's
// stable-baselines (Graph: MPI Adam, separate target calls) and fused-Adam
// paths, and the twin-critic algorithms. Each run reaches at least two
// Update calls; CollectStepsOverride shortens segments longer than the run.
var agentDigestCases = []struct {
	spec   Spec
	digest string
}{
	{Spec{Algo: "DQN", Env: "Pong", Model: backend.Graph, TotalSteps: 240, Seed: 7}, "bdb735712e31234624c34d6a3b071a7db264f7438b6860eb6fdb0379dd8bcc51"},
	{Spec{Algo: "A2C", Env: "Pong", Model: backend.Graph, TotalSteps: 200, Seed: 7}, "e3879ba6208e0ac8f887b4f83dc70ac49cb865ba65885cbf6f0ca4497942ea92"},
	{Spec{Algo: "PPO2", Env: "Pong", Model: backend.EagerTF, TotalSteps: 200, Seed: 7, CollectStepsOverride: 8}, "1312ad80b58626e766ba0c32e933b3b5e50c6bcfc7b20e5d56f835b976fc8540"},
	{Spec{Algo: "A2C", Env: "Walker2D", Model: backend.Autograph, TotalSteps: 200, Seed: 7}, "9443ef5c2b582a37cc8a037c2a131c096440548a2cb27f73e3999ee4a813e868"},
	{Spec{Algo: "PPO2", Env: "Walker2D", Model: backend.Graph, TotalSteps: 200, Seed: 7, CollectStepsOverride: 16}, "7367722ba498bfe284c9b8e064b891ffc619ca604e68225f533664dc0322a697"},
	{Spec{Algo: "DDPG", Env: "Walker2D", Model: backend.Graph, TotalSteps: 200, Seed: 7, CollectStepsOverride: 4}, "53aaaf28ef678fe1434eabc5bf27ca19893401e5fb98aaf1a49be18bc7b63bba"},
	{Spec{Algo: "DDPG", Env: "Walker2D", Model: backend.EagerPyTorch, TotalSteps: 200, Seed: 7, CollectStepsOverride: 4}, "84091a065bc04c27506b719b7ac02585561aeb608d1131a12b6a861a3807623e"},
	{Spec{Algo: "TD3", Env: "Walker2D", Model: backend.Autograph, TotalSteps: 200, Seed: 7, CollectStepsOverride: 4}, "64b6fa416e7df5014249b6101e653d12c4b7b300cccf1ba93f46ed9e8b3617b1"},
	{Spec{Algo: "SAC", Env: "Walker2D", Model: backend.EagerPyTorch, TotalSteps: 200, Seed: 7, CollectStepsOverride: 4}, "ccdcb846c1b71f049bdeb892b3010ce8a7e960a1aa793e2c4094e2f9e0f9245a"},
}

// calibrateFlags is the flag sets Calibrate asks its runner for.
func calibrateFlags() []trace.FeatureFlags {
	var asked []trace.FeatureFlags
	calib.Calibrate(func(_ int64, flags ...trace.FeatureFlags) ([]*calib.RunStats, error) {
		asked = flags
		return nil, errors.New("flags recorded")
	}, 0)
	return asked
}

// traceDigest is the on-disk digest of a run's trace.
func traceDigest(t *testing.T, stats *calib.RunStats) string {
	t.Helper()
	dir := t.TempDir()
	w, err := trace.NewWriter(dir, 1<<15)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.Append(stats.Trace.Events...)
	if err := w.Close(stats.Trace.Meta); err != nil {
		t.Fatalf("Writer.Close: %v", err)
	}
	got, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatalf("DirDigest: %v", err)
	}
	return got
}

// TestAgentTraceDigests holds every agent's observable behaviour — its RNG
// draws, the names and order of its backend calls, and the floats those
// calls carry — to the byte: the on-disk digest of each run's fully
// instrumented trace must equal the pinned value. A refactor of
// internal/rl that changes any of them moves a digest.
//
// Each spec trains once with six lanes, the full flag set and Calibrate's
// five, and every lane must record what a run with that flag set alone
// records: the same trace bytes, total, book-keeping counts and per-API
// CUDA statistics.
func TestAgentTraceDigests(t *testing.T) {
	flags := append([]trace.FeatureFlags{trace.Full()}, calibrateFlags()...)
	if len(flags) != 6 {
		t.Fatalf("Calibrate asked for %d flag sets, want 5", len(flags)-1)
	}
	for _, c := range agentDigestCases {
		t.Run(c.spec.Name(), func(t *testing.T) {
			t.Parallel()
			lanes, err := RunLanes(c.spec, flags...)
			if err != nil {
				t.Fatalf("RunLanes: %v", err)
			}
			updates := 0
			for _, e := range lanes[0].Trace.Events {
				if e.Kind == trace.KindOp && e.Name == OpBackpropagation {
					updates++
				}
			}
			if updates < 2 {
				t.Fatalf("%d Update calls, want at least 2", updates)
			}
			if got := traceDigest(t, lanes[0]); got != c.digest {
				t.Fatalf("trace digest %s, pinned %s", got, c.digest)
			}
			for i, f := range flags {
				solo, err := Run(c.spec, f)
				if err != nil {
					t.Fatalf("Run(%v): %v", f, err)
				}
				lane := lanes[i]
				switch {
				case traceDigest(t, lane) != traceDigest(t, solo):
					t.Errorf("lane %d (%v): trace differs from its solo run", i, f)
				case lane.Total != solo.Total:
					t.Errorf("lane %d (%v): total %v, solo %v", i, f, lane.Total, solo.Total)
				case !maps.Equal(lane.OverheadCounts, solo.OverheadCounts):
					t.Errorf("lane %d (%v): overhead counts %v, solo %v", i, f, lane.OverheadCounts, solo.OverheadCounts)
				case !maps.Equal(lane.APICount, solo.APICount) || !maps.Equal(lane.APIDur, solo.APIDur):
					t.Errorf("lane %d (%v): CUDA API stats %v %v, solo %v %v", i, f, lane.APICount, lane.APIDur, solo.APICount, solo.APIDur)
				}
			}
		})
	}
}

package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/sim"
)

// actionRecorder hashes the bits of every action its agent emits.
type actionRecorder struct {
	Agent
	h hash.Hash
}

func (r actionRecorder) ActBatch(obs [][]float64) [][]float64 {
	acts := r.Agent.ActBatch(obs)
	var b [8]byte
	for _, act := range acts {
		for _, a := range act {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(a))
			r.h.Write(b[:])
		}
	}
	return acts
}

// TestAgentActionDigests pins, bit for bit, every action each agent emits
// over a collect/update loop long enough for many updates to feed back into
// its policy. It holds the agents' RNG draws and the float expressions of
// their action rules and updates to the byte; TestAgentTraceDigests in
// internal/workloads holds their backend call sequence.
func TestAgentActionDigests(t *testing.T) {
	cases := []struct {
		algo, env string
		model     backend.ExecModel
		cycles    int
		digest    string
	}{
		{"DQN", "Pong", backend.Graph, 70, "eae310b0802a933608af36f142cfa132c3ef6c19f3db67fdc95a675628abe637"},
		{"A2C", "Pong", backend.Graph, 8, "5e0442dd202ee21d6e31e527760662b77cc87cf83f09474f140d893691ff478d"},
		{"A2C", "Walker2D", backend.Graph, 8, "51600532d3dd4376ff65e11b94f28f5c995006940bc03333a42388146739c0ad"},
		{"PPO2", "Pong", backend.Graph, 6, "c6c62192c6210e2a3b68ab7acb804f53f734fc05ddda38240f7eb6f20e4d619a"},
		{"PPO2", "Walker2D", backend.Graph, 6, "89cd5e60ca73f778bdfe0962198b54e02322991b1b9df7545675816979055573"},
		{"DDPG", "Walker2D", backend.Graph, 50, "1ce6296937aaff5fa6dcb69e9730e2d0650f06b7e9ad3da045c2906246c2a3f2"},
		{"DDPG", "Walker2D", backend.EagerPyTorch, 50, "1ce6296937aaff5fa6dcb69e9730e2d0650f06b7e9ad3da045c2906246c2a3f2"},
		{"TD3", "Walker2D", backend.Graph, 50, "854bac7017f00dffe278fc884072836c5a6cafd35a9bee55486c5d67501ef351"},
		{"SAC", "Walker2D", backend.Graph, 50, "55bddc0e722ef5d764f98a6777221d6153a065e74c06bb3660b9622d75d1257f"},
	}
	for _, c := range cases {
		t.Run(c.algo+"-"+c.env+"-"+c.model.String(), func(t *testing.T) {
			b, _, s := newTestBackend(t, c.model, 31)
			makeEnv := func(seed int64) sim.Env {
				env, err := sim.New(c.env, seed)
				if err != nil {
					t.Fatal(err)
				}
				return env
			}
			env := makeEnv(3)
			cfg := Config{
				Backend: b, ObsDim: env.ObsDim(), ActDim: env.ActDim(), Discrete: env.Discrete(),
				Seed: 5, BatchSize: 16, Hidden: []int{16, 16}, CollectStepsOverride: 4,
			}
			var agent Agent
			switch c.algo {
			case "DQN":
				agent = NewDQN(cfg)
			case "DDPG":
				agent = NewDDPG(cfg)
			case "TD3":
				agent = NewTD3(cfg)
			case "SAC":
				agent = NewSAC(cfg)
			case "A2C":
				agent = NewA2C(cfg)
			case "PPO2":
				agent = NewPPO2(cfg)
			}
			rec := actionRecorder{Agent: agent, h: sha256.New()}
			driveAgent(t, rec, makeEnv, c.cycles)
			s.Close()
			if got := hex.EncodeToString(rec.h.Sum(nil)); got != c.digest {
				t.Fatalf("action digest %s, pinned %s", got, c.digest)
			}
		})
	}
}

package workloads

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/trace"
)

func testDistSpec() DistributedSpec {
	return DistributedSpec{
		Actors: 2, Algo: "DDPG", Env: "Hopper", Model: backend.EagerPyTorch,
		TotalSteps: 150, Seed: 7,
	}
}

// TestRunDistributedDeterminism: the whole multi-host run is a pure
// function of the spec — every host's events, metadata, and injected skew
// reproduce exactly.
func TestRunDistributedDeterminism(t *testing.T) {
	a, err := RunDistributed(testDistSpec(), trace.Full())
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	b, err := RunDistributed(testDistSpec(), trace.Full())
	if err != nil {
		t.Fatalf("RunDistributed (repeat): %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("host counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Host != b[i].Host || a[i].Skew != b[i].Skew {
			t.Fatalf("host %d identity drifted: %q/%v vs %q/%v", i, a[i].Host, a[i].Skew, b[i].Host, b[i].Skew)
		}
		if !reflect.DeepEqual(a[i].Trace.Events, b[i].Trace.Events) {
			t.Errorf("host %s: events differ between identical runs", a[i].Host)
		}
		if !reflect.DeepEqual(a[i].Trace.Meta, b[i].Trace.Meta) {
			t.Errorf("host %s: metadata differs between identical runs", a[i].Host)
		}
	}
}

func TestRunDistributedShape(t *testing.T) {
	spec := testDistSpec()
	runs, err := RunDistributed(spec, trace.Full())
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	if len(runs) != spec.Actors+1 {
		t.Fatalf("got %d hosts, want %d", len(runs), spec.Actors+1)
	}
	wantHosts := []string{LearnerHost, ActorHost(0), ActorHost(1)}
	for i, r := range runs {
		if r.Host != wantHosts[i] {
			t.Errorf("host %d = %q, want %q", i, r.Host, wantHosts[i])
		}
		if r.Trace.Meta.Host != r.Host {
			t.Errorf("host %s: Meta.Host = %q", r.Host, r.Trace.Meta.Host)
		}
		if r.Trace.Meta.Workload != spec.Name() {
			t.Errorf("host %s: workload %q, want %q", r.Host, r.Trace.Meta.Workload, spec.Name())
		}
		if r.Skew < 0 || r.Skew >= DefaultMaxSkew {
			t.Errorf("host %s: skew %v outside [0, %v)", r.Host, r.Skew, DefaultMaxSkew)
		}
		if err := r.Trace.Validate(); err != nil {
			t.Errorf("host %s: invalid trace: %v", r.Host, err)
		}
		var sends, recvs int
		for _, e := range r.Trace.Events {
			if e.Cat != trace.CatNetwork {
				continue
			}
			switch {
			case strings.HasPrefix(e.Name, "net.send:"):
				sends++
			case strings.HasPrefix(e.Name, "net.recv:"):
				recvs++
			}
		}
		if sends == 0 || recvs == 0 {
			t.Errorf("host %s: %d sends / %d recvs — every host must both send and receive", r.Host, sends, recvs)
		}
	}
	// Actors do environment steps; the learner does none itself.
	learnerSteps := 0
	for _, e := range runs[0].Trace.Events {
		if e.Cat == trace.CatSimulator && strings.HasSuffix(e.Name, ".step") {
			learnerSteps++
		}
	}
	if learnerSteps != 0 {
		t.Errorf("learner stepped the environment %d times; steps belong to actors", learnerSteps)
	}
	for _, r := range runs[1:] {
		actorSteps := 0
		for _, e := range r.Trace.Events {
			if e.Cat == trace.CatSimulator && strings.HasSuffix(e.Name, ".step") {
				actorSteps++
			}
		}
		if actorSteps != spec.TotalSteps {
			t.Errorf("host %s: %d env steps, want %d", r.Host, actorSteps, spec.TotalSteps)
		}
	}
}

func TestRunDistributedValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DistributedSpec)
		want string
	}{
		{"zero actors", func(s *DistributedSpec) { s.Actors = 0 }, "Actors"},
		{"too many actors", func(s *DistributedSpec) { s.Actors = MaxActors + 1 }, "Actors"},
		{"zero steps", func(s *DistributedSpec) { s.TotalSteps = 0 }, "TotalSteps"},
		{"on-policy algorithm", func(s *DistributedSpec) { s.Algo = "PPO2" }, "on-policy"},
		{"unknown algorithm", func(s *DistributedSpec) { s.Algo = "ZZZ" }, ""},
		{"unknown env", func(s *DistributedSpec) { s.Env = "Mars" }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testDistSpec()
			tc.mut(&spec)
			_, err := RunDistributed(spec, trace.Full())
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", err, tc.want)
			}
		})
	}
}

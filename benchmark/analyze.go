package main

import (
	"bytes"
	"context"
	"fmt"

	rlscope "repro"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/minigo"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// analyzeWorkload is the offline batch path, `rlscope-analyze -json`:
// Engine.Analyze over a trace directory, then the stable document.
var analyzeWorkload = &workload{
	name:            "analyze",
	why:             "offline batch: read/decode/plan/route/sweep/merge/render dominate, the write side is idle; multi vs single splits inter- from intra-process sharding, corrected holds the budget path and the calib stage",
	roundsPerSecond: 7,
	warmRounds:      2,
	setup: func(e *env) (*instance, error) {
		fx, err := newAnalyzeFixtures(e)
		if err != nil {
			return nil, err
		}
		return fx.instance()
	},
}

// analyzeFixtures are the canonical traces of the benchmark: the analyze
// workload times the Engine over them and the layer probes time every
// layer over the same ones.
type analyzeFixtures struct {
	multi    *trace.Trace // minigo: 17 processes
	single   *trace.Trace // PPO2/Hopper: one process, every overhead marker
	multiDir string
	singDir  string
	cal      *calib.Calibration
}

func singleSpec(seed int64, steps int) workloads.Spec {
	return workloads.Spec{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: steps, Seed: seed}
}

func newAnalyzeFixtures(e *env) (*analyzeFixtures, error) {
	cfg := minigo.DefaultConfig()
	cfg.GamesPerWorker = e.scaled(2, 1)
	cfg.Workers = e.scaled(16, 2)
	cfg.Seed = e.seed
	res, err := minigo.Run(cfg)
	if err != nil {
		return nil, err
	}
	stats, err := workloads.Run(singleSpec(e.seed, e.scaled(3000, 60)), trace.Full())
	if err != nil {
		return nil, err
	}
	cal, err := calib.Calibrate(workloads.Runner(singleSpec(0, e.scaled(300, 30))), e.seed)
	if err != nil {
		return nil, err
	}
	fx := &analyzeFixtures{
		multi:    res.Trace,
		single:   stats.Trace,
		multiDir: e.dir("analyze", "multi"),
		singDir:  e.dir("analyze", "single"),
		cal:      cal,
	}
	if err := writeTrace(fx.multiDir, fx.multi); err != nil {
		return nil, err
	}
	if err := writeTrace(fx.singDir, fx.single); err != nil {
		return nil, err
	}
	return fx, nil
}

// resultDoc renders the results-only document: the form whose bytes depend
// on trace content and options alone.
func resultDoc(rep *rlscope.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&buf)
	return buf.Bytes(), err
}

func (fx *analyzeFixtures) instance() (*instance, error) {
	ctx := context.Background()
	inst := &instance{close: func() {}}
	for _, v := range []struct {
		name string
		dir  string
		opts []rlscope.EngineOption
	}{
		{"multi", fx.multiDir, nil},
		{"single", fx.singDir, nil},
		{"corrected", fx.singDir, []rlscope.EngineOption{
			rlscope.WithCorrection(fx.cal), rlscope.WithMaxResidentBytes(256 << 10),
		}},
	} {
		// Reference: the materialised path, sequential, over the trace
		// as read back from the directory.
		loaded, err := trace.ReadDir(v.dir)
		if err != nil {
			return nil, err
		}
		ref, err := rlscope.NewEngine(append([]rlscope.EngineOption{rlscope.WithWorkers(1)}, v.opts...)...).
			Analyze(ctx, rlscope.FromTrace(loaded))
		if err != nil {
			return nil, err
		}
		want, err := resultDoc(ref)
		if err != nil {
			return nil, err
		}
		size, err := dirBytes(v.dir)
		if err != nil {
			return nil, err
		}
		// The closures keep the directory and the counts, not the
		// materialised traces: the timed phase runs with the heap the
		// CLI would have.
		var (
			eng    = rlscope.NewEngine(v.opts...)
			dir    = v.dir
			events = len(loaded.Events)
			rep    *rlscope.Report
			doc    bytes.Buffer
		)
		vr := &variant{
			name:  v.name,
			units: int64(events),
			run: func(op int, sp *spans) error {
				h := sp.begin("engine.analyze", op)
				var err error
				rep, err = eng.Analyze(ctx, rlscope.FromDir(dir))
				sp.end(h)
				if err != nil {
					return err
				}
				h = sp.begin("report.encode", op)
				doc.Reset()
				err = report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&doc)
				sp.end(h)
				return err
			},
			check: func(op int) (int64, error) {
				got, err := resultDoc(rep)
				if err != nil {
					return 0, err
				}
				if !bytes.Equal(got, want) {
					return 0, fmt.Errorf("streamed document (%d B) differs from the materialised reference (%d B)", len(got), len(want))
				}
				if rep.Stats.Events != events {
					return 0, fmt.Errorf("analysed %d events, trace holds %d", rep.Stats.Events, events)
				}
				return size + int64(doc.Len()), nil
			},
		}
		inst.variants = append(inst.variants, vr)
	}
	return inst, nil
}

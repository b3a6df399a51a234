package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// recordWorkload is the write side: annotate → Trace → encode → Writer →
// DirSink. Analysis and serving do nothing here.
var recordWorkload = &workload{
	name:            "record",
	why:             "write side only: profiler annotate + trace encode/Writer/DirSink do all the work, analysis and serve none; a default-format flip shows in io_bytes_per_unit",
	roundsPerSecond: 7,
	warmRounds:      8,
	setup:           setupRecord,
}

// recordSteps is the length of each of the two sessions of a record op.
const recordSteps = 1000

func setupRecord(e *env) (*instance, error) {
	steps := e.scaled(recordSteps, 40)
	inst := &instance{close: func() {}}
	for i, v := range []struct {
		name string
		mix  mix
	}{
		{"gpu_heavy", gpuHeavy},
		{"sim_heavy", simHeavy},
	} {
		sched := newSchedule("record-"+v.name, e.seed+int64(i), v.mix, 2, steps)
		base := e.dir("record", v.name)
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		// Warm-up op: its trace is the reference every timed op must
		// reproduce byte for byte.
		warm := filepath.Join(base, "warm")
		p := sched.annotate()
		tr, err := p.Trace()
		if err != nil {
			return nil, err
		}
		if err := p.WriteTo(warm); err != nil {
			return nil, err
		}
		want, err := trace.DirDigest(warm)
		if err != nil {
			return nil, err
		}
		opDir := func(op int) string { return filepath.Join(base, fmt.Sprintf("op%d", op)) }
		inst.variants = append(inst.variants, &variant{
			name:  v.name,
			units: int64(len(tr.Events)),
			run: func(op int, sp *spans) error {
				h := sp.begin("profiler.annotate", op)
				p := sched.annotate()
				sp.end(h)
				h = sp.begin("profiler.write_to", op)
				err := p.WriteTo(opDir(op))
				sp.end(h)
				return err
			},
			check: func(op int) (int64, error) {
				dir := opDir(op)
				defer os.RemoveAll(dir)
				got, err := trace.DirDigest(dir)
				if err != nil {
					return 0, err
				}
				if got != want {
					return 0, fmt.Errorf("trace dir digest %s, warm-up wrote %s", got, want)
				}
				return dirBytes(dir)
			},
		})
	}
	return inst, nil
}

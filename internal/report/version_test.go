package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// documentDigests holds, per DocumentVersion, the SHA-256 of the two full
// workers=1 Analysis documents of the version fixture: uncorrected, then
// corrected. A change that moves either bumps DocumentVersion and adds the
// row; the rows of older versions stay, as the record of what each stored.
var documentDigests = map[int][2]string{
	1: {
		"d8b550ab59a6f97b0791ec3c572d9bc240f6b0d70a66231bcc1eb286c6b4235f",
		"52eb15fcd4bc836b9a9e20dd6e42fb32ee471c828779e28d8ae297f443e261c4",
	},
}

// TestDocumentVersionPinsBytes fails when the stored documents' bytes move
// and DocumentVersion does not: the fixture — a PPO2/Hopper trace with every
// overhead marker, in 16 KiB chunks — is analyzed at one worker, plain and
// corrected, and each full document, stats block included, must digest to
// the row of the current version.
func TestDocumentVersionPinsBytes(t *testing.T) {
	run, err := workloads.Run(workloads.Spec{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: 120, Seed: 3}, trace.Full())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := trace.NewWriter(dir, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(run.Trace.Events...)
	if err := w.Close(run.Trace.Meta); err != nil {
		t.Fatal(err)
	}
	cal := &calib.Calibration{
		Annotation: 2 * vclock.Microsecond, Interception: vclock.Microsecond, CUDAIntercept: 800,
		CUPTI: map[string]vclock.Duration{"cudaLaunchKernel": 3 * vclock.Microsecond, "cudaMemcpyAsync": 1500},
	}
	var got [2]string
	for i, opts := range [][]analysis.EngineOption{
		{analysis.WithWorkers(1)},
		{analysis.WithWorkers(1), analysis.WithCorrection(cal)},
	} {
		rep, err := analysis.NewEngine(opts...).Analyze(context.Background(), analysis.FromDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[i] = hex.EncodeToString(sum[:])
	}
	if want := documentDigests[DocumentVersion]; got != want {
		t.Fatalf("documents digest to %q at DocumentVersion %d, pinned %q: a change that moves a stored document's bytes bumps DocumentVersion and pins the new digests under it", got, DocumentVersion, want)
	}
}

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

// documentDigests holds, per DocumentVersion, the SHA-256 of the version
// fixture's Analysis documents, each uncorrected then corrected: the full
// workers=1 documents, stats block included, and the result-only ones. A
// change that moves any of them bumps DocumentVersion and adds the row; the
// rows of older versions stay, as the record of what each stored.
var documentDigests = map[int]struct{ full, result [2]string }{
	1: {
		full: [2]string{
			"d8b550ab59a6f97b0791ec3c572d9bc240f6b0d70a66231bcc1eb286c6b4235f",
			"52eb15fcd4bc836b9a9e20dd6e42fb32ee471c828779e28d8ae297f443e261c4",
		},
		result: [2]string{
			"fa884bcc29c7d36b7e550671dbe7156323f0b9aa13a98992fc9057ab0db9e31c",
			"8e5067a0bfe747306a153fe9415e9d98d95b49369fa0dbc2d35633c8946b0c1f",
		},
	},
	2: {
		full: [2]string{
			"ef57b3507744b684fee64327d3582290628d6886875a790246a55d3e9fe7e4b8",
			"52eb15fcd4bc836b9a9e20dd6e42fb32ee471c828779e28d8ae297f443e261c4",
		},
		result: [2]string{
			"fa884bcc29c7d36b7e550671dbe7156323f0b9aa13a98992fc9057ab0db9e31c",
			"8e5067a0bfe747306a153fe9415e9d98d95b49369fa0dbc2d35633c8946b0c1f",
		},
	},
}

// resultSetDigests holds, per ResultSetVersion, the SHA-256 of the version
// fixture's uncorrected results as EncodeResultSet writes them: the blob a
// server stores per trace. A change that moves it bumps ResultSetVersion and
// adds the row.
var resultSetDigests = map[int]string{
	1: "dbf1cb76309d040fe9fdded97ec03574bd04b6a78af3d161a8ed5798264406d8",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDocumentVersionPinsBytes fails when the stored documents' bytes move
// and their version does not: the fixture — a PPO2/Hopper trace with every
// overhead marker, in 16 KiB chunks — is analyzed at one worker, plain and
// corrected; each full document, stats block included, and each result-only
// document must digest to the row of the current DocumentVersion, and the
// plain run's encoded result set to the row of the current ResultSetVersion.
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
	var got struct{ full, result [2]string }
	var gotSet string
	for i, opts := range [][]analysis.EngineOption{
		{analysis.WithWorkers(1)},
		{analysis.WithWorkers(1), analysis.WithCorrection(cal)},
	} {
		rep, err := analysis.NewEngine(opts...).Analyze(context.Background(), analysis.FromDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		var full, result, set bytes.Buffer
		if err := NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&full); err != nil {
			t.Fatal(err)
		}
		if err := NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&result); err != nil {
			t.Fatal(err)
		}
		got.full[i], got.result[i] = digest(full.Bytes()), digest(result.Bytes())
		if i == 0 {
			if err := EncodeResultSet(&set, rep.Results); err != nil {
				t.Fatal(err)
			}
			gotSet = digest(set.Bytes())
		}
	}
	if want := documentDigests[DocumentVersion]; got != want {
		t.Errorf("documents digest to %+v at DocumentVersion %d, pinned %+v: a change that moves a stored document's bytes bumps DocumentVersion and pins the new digests under it", got, DocumentVersion, want)
	}
	if want := resultSetDigests[ResultSetVersion]; gotSet != want {
		t.Errorf("result set digests to %q at ResultSetVersion %d, pinned %q: a change that moves a stored result set's bytes bumps ResultSetVersion and pins the new digest under it", gotSet, ResultSetVersion, want)
	}
}

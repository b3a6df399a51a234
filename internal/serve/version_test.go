package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/backend"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// servedDocumentDigests holds, per report.DocumentVersion, the SHA-256 of the
// two documents this package builds over the version fixture of
// report.TestDocumentVersionPinsBytes: its trace summary and a fleet query
// grouping it by workload. A change that moves either bumps DocumentVersion
// and adds the row; the rows of older versions stay.
var servedDocumentDigests = map[int]map[string]string{
	1: {
		"trace summary": "1dc0a7ebd916f926aa0a7283ebc0193776d49eec6c58a6d479c3a9dcba3a18ee",
		"fleet query":   "700f1d71b4cddb0a0664639c4f97740354ef0487f2c05a316408ec97287f75b7",
	},
	2: {
		"trace summary": "1dc0a7ebd916f926aa0a7283ebc0193776d49eec6c58a6d479c3a9dcba3a18ee",
		"fleet query":   "700f1d71b4cddb0a0664639c4f97740354ef0487f2c05a316408ec97287f75b7",
	},
}

// TestDocumentVersionPinsServedBytes fails when the bytes of a served trace
// summary or fleet query document move and DocumentVersion does not, naming
// the kind that moved. The fixture is the one the report package pins its
// analysis documents over: a PPO2/Hopper trace with every overhead marker, in
// 16 KiB chunks.
func TestDocumentVersionPinsServedBytes(t *testing.T) {
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
	h := newScenario(t, Config{MaxWorkers: 1}).addDir("qs", dir).s.Handler()
	got := map[string]string{
		"trace summary": mustOK(t, h, "GET", "/v1/traces/qs/summary", "").Body.String(),
		"fleet query":   mustOK(t, h, "POST", "/v1/query", `{"group_by":["workload"]}`).Body.String(),
	}
	want := servedDocumentDigests[report.DocumentVersion]
	for kind, doc := range got {
		sum := sha256.Sum256([]byte(doc))
		if d := hex.EncodeToString(sum[:]); d != want[kind] {
			t.Errorf("the %s digests to %s at DocumentVersion %d, pinned %q: a change that moves a served document's bytes bumps DocumentVersion and pins the new digests under it", kind, d, report.DocumentVersion, want[kind])
		}
	}
}

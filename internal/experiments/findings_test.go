package experiments

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/overlap"
	"repro/internal/trace"
)

// The paper's findings F.1–F.12 and this repo's own claims are not asserted
// here: each is a hypothesis in the committed grid (hypotheses.json, DESIGN.md
// §10), and cmd/rlscope-hyp's TestVerdictsGolden evaluates the grid once,
// requires every verdict confirmed, and compares the whole verdict document
// with the committed verdicts.json — so a tolerance lives in exactly one
// place and a moved metric shows up as a diff. This file keeps the checks
// that are not grid metrics.

// Scoping is the information RL-Scope adds over a conventional profiler
// (paper §3.3): the same trace stripped of its operation annotations must
// sweep to strictly fewer breakdown cells.
func TestScopingAddsInformation(t *testing.T) {
	tr, err := walkerRun(400, 5, trace.Uninstrumented())
	if err != nil {
		t.Fatal(err)
	}
	events := tr.ProcEvents(0)
	var flat []trace.Event
	for _, e := range events {
		if e.Kind != trace.KindOp {
			flat = append(flat, e)
		}
	}
	if scoped, unscoped := len(overlap.Compute(events).ByKey), len(overlap.Compute(flat).ByKey); scoped <= unscoped {
		t.Fatalf("scoping added no information: %d scoped cells, %d flat", scoped, unscoped)
	}
}

// renderGolden is the SHA-256 of every render at Options{Steps: 100, Seed:
// 1}, the smallest budget at which every row prints (at 60 steps Figure 4 has
// no backpropagation rows). The renders are deterministic at any GOMAXPROCS.
var renderGolden = map[string]string{
	"table1":  "6964ff433360241914fa293ee387d4beb1c64bb462f2a26a7b599797f80a51df",
	"fig3":    "6f481c0f5faae16deeb4f49d13b4d67e133046d904c078e98a0311fd50ee7277",
	"fig4":    "7e05dfbb088b6b7d072fda6384ba880ce1b566202c9c2cb856cba7844b914096",
	"fig5":    "f743bb21d60a1dff589dc250db0e9b486254febb10684990434974d76d4a966d",
	"fig6":    "b432cfc03871b0d5012e8abb1c66653b77ee35b6be373feea6fcfd4c8b1da390",
	"fig7":    "276f01db92b773e214a700637fbb34fd66252093bc078bde5c26b431cda5ccee",
	"fig8":    "03c072bc3e4050ab871f601b327e3f0561c6490c88989c55f29b392dae3c026c",
	"fig9":    "9db2347173c80cb4d26a6a080527faa76ea8187428f9c14d6ff1d486cd2998a4",
	"fig10":   "40a50a0a0108141c05a4e813076a855771db09ef63d8da80708a50e95a51a228",
	"fig11":   "d2eea2760de8850f0e0afbbcadab261e3c98acfba3b42cbc9aa93735b753aa34",
	"c4":      "689ad9709fa34bd2767ec63d70e242b51e3d4ae1646c6b1d97da1b8afc634e86",
	"scaling": "b2fe68333d37eb0bd8468ff8ee7a95b0fb2e19e31127105d72c4b41b51deaff4",
	"stream":  "c3819d67849b157fdb41620efbafa4929feeee1f9da122a9119003a80ff1f731",
}

// TestRenderGolden pins every rendered table and figure byte for byte at a
// small scale; the figures' numeric claims live in the grid.
func TestRenderGolden(t *testing.T) {
	if ids := slices.Sorted(maps.Keys(renderGolden)); !slices.Equal(slices.Sorted(slices.Values(renders)), ids) {
		t.Fatalf("render ids %v, golden ids %v", renders, ids)
	}
	for _, id := range renders {
		text, err := Render(id, Options{Steps: 100, Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != renderGolden[id] {
			t.Errorf("%s renders to sha256 %s, want %s:\n%s", id, got, renderGolden[id], text)
		}
	}
}

// TestSelectRefusesUnknownIDs: an unknown -run id is an error that names
// every known one, before anything runs.
func TestSelectRefusesUnknownIDs(t *testing.T) {
	_, err := Select("fig3,nope")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("Select(fig3,nope) = %v, want an error naming nope", err)
	}
	for _, id := range renders {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name the known id %s", err, id)
		}
	}
	if got, err := Select(" fig5,fig3"); err != nil || !slices.Equal(got, []string{"fig3", "fig5"}) {
		t.Errorf("Select(fig5,fig3) = %v, %v; want [fig3 fig5] in table order", got, err)
	}
	if _, err := Render("seedrepro", Options{}); err == nil {
		t.Error("Render of a metric-only bundle did not fail")
	}
}

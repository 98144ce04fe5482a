package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21",
		// Extensions and ablations beyond the paper's figures.
		"abl-introprob", "abl-pongsize", "cmp-families", "ext-adaptive",
		"ext-detection", "ext-selfish",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %d experiments", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestTitles(t *testing.T) {
	for _, id := range IDs() {
		title, err := Title(id)
		if err != nil || title == "" {
			t.Fatalf("Title(%q) = %q, %v", id, title, err)
		}
	}
	if _, err := Title("nope"); err == nil {
		t.Fatal("Title accepted unknown id")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := runID("nope", Options{}); err == nil {
		t.Fatal("Run accepted unknown id")
	}
}

// runID looks up the experiment id and runs it.
func runID(id string, opts Options) (*Result, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// quickOpts keeps experiment smoke tests fast.
func quickOpts() Options {
	return Options{Scale: Quick, Seed: 7}
}

// skipHeavy gates the long simulation sweeps out of -short runs. The
// Makefile's race target uses -short: the race detector's ~20x
// slowdown turns the full battery into a multi-ten-minute run, so only
// the cheapest sweeps stay on to cover the worker-pool concurrency.
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy simulation sweep; skipped with -short")
	}
}

func checkResult(t *testing.T, id string, res *Result) {
	t.Helper()
	if res.ID != id {
		t.Fatalf("result ID %q, want %q", res.ID, id)
	}
	if res.Title == "" {
		t.Fatal("empty title")
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tb := range res.Tables {
		if tb.NumRows() == 0 {
			t.Fatalf("table %q has no rows", tb.Title)
		}
	}
	var b strings.Builder
	if _, err := res.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("WriteTo produced nothing")
	}
}

func TestRunTable3(t *testing.T) {
	skipHeavy(t)
	res, err := runID("table3", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "table3", res)
	rows := res.Tables[0].Rows()
	if len(rows) != 6 {
		t.Fatalf("table3 has %d rows, want 6", len(rows))
	}
	// Fraction live must decrease from the smallest to the largest
	// cache size (the paper's core Table 3 observation).
	first, last := rows[0][1], rows[len(rows)-1][1]
	if first <= last {
		t.Fatalf("fraction live did not fall with cache size: %s -> %s", first, last)
	}
}

func TestRunFig5ShapesHold(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig5", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig5", res)
}

func TestRunFig8GuessBeatsFixedExtent(t *testing.T) {
	res, err := runID("fig8", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig8", res)
	// The table must contain all four mechanisms.
	var mechanisms []string
	for _, row := range res.Tables[0].Rows() {
		mechanisms = append(mechanisms, row[0])
	}
	joined := strings.Join(mechanisms, ",")
	for _, want := range []string{"FixedExtent", "IterativeDeepening", "GUESS"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("fig8 missing mechanism %s", want)
		}
	}
}

func TestRunFig12(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig12", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig12", res)
	if got := len(res.Tables[0].Rows()); got != 5 {
		t.Fatalf("fig12 rows = %d, want 5 policies", got)
	}
}

func TestRunFig13(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig13", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig13", res)
	// 5 columns: rank + 4 combos.
	if got := len(res.Tables[0].Columns); got != 5 {
		t.Fatalf("fig13 columns = %d, want 5", got)
	}
}

func TestRunFig15(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig15", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig15", res)
}

func TestRunFig17PoisoningHurts(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig17", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig17", res)
	// MFS at 20% bad must be worse than MFS at 0% bad.
	rows := res.Tables[0].Rows()
	var mfs0, mfs20 string
	for _, row := range rows {
		if row[0] == "MFS" && row[1] == "0" {
			mfs0 = row[2]
		}
		if row[0] == "MFS" && row[1] == "20" {
			mfs20 = row[2]
		}
	}
	if mfs0 == "" || mfs20 == "" {
		t.Fatalf("MFS rows missing: %v", rows)
	}
	a, err := strconv.ParseFloat(mfs0, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := strconv.ParseFloat(mfs20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("MFS unsatisfaction did not rise under poisoning: %v -> %v", a, b)
	}
}

func TestProgressWriter(t *testing.T) {
	skipHeavy(t)
	var b strings.Builder
	opts := quickOpts()
	opts.Progress = &b
	// fig6 goes through the non-memoized runAll path, so its runs (and
	// progress lines) can never be absorbed by another test's cached
	// sweep.
	if _, err := runID("fig6", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "done") {
		t.Fatal("no progress lines written")
	}
}

func TestRunFig3AndFig4ShareSweep(t *testing.T) {
	skipHeavy(t)
	res3, err := runID("fig3", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig3", res3)
	// Figure 4 projects the identical cache sweep; after fig3 it must
	// come from the memo and agree row for row on the sweep grid.
	res4, err := runID("fig4", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig4", res4)
	r3, r4 := res3.Tables[0].Rows(), res4.Tables[0].Rows()
	if len(r3) != len(r4) {
		t.Fatalf("fig3 has %d rows, fig4 has %d; same sweep should give the same grid", len(r3), len(r4))
	}
	for i := range r3 {
		if r3[i][0] != r4[i][0] || r3[i][1] != r4[i][1] {
			t.Fatalf("row %d grid mismatch: fig3 %v vs fig4 %v", i, r3[i], r4[i])
		}
	}
}

func TestRunFig6(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig6", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig6", res)
	// Quick scale: 3 cache sizes x 4 ping intervals.
	if got := len(res.Tables[0].Rows()); got != 12 {
		t.Fatalf("fig6 rows = %d, want 12", got)
	}
}

func TestRunFig7(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig7", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig7", res)
	// Quick scale: 2 network sizes x 4 ping intervals; the relative
	// component column must be a fraction of the network.
	rows := res.Tables[0].Rows()
	if len(rows) != 8 {
		t.Fatalf("fig7 rows = %d, want 8", len(rows))
	}
	for _, row := range rows {
		rel, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rel <= 0 || rel > 1 {
			t.Fatalf("fig7 relative WCC %v outside (0,1]: %v", rel, row)
		}
	}
}

func TestRunFig9(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig9", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig9", res)
	if got := len(res.Tables[0].Rows()); got != 5 {
		t.Fatalf("fig9 rows = %d, want 5 policies", got)
	}
}

func TestRunFig10(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig10", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig10", res)
	if got := len(res.Tables[0].Rows()); got != 5 {
		t.Fatalf("fig10 rows = %d, want 5 policies", got)
	}
}

func TestRunFig11(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig11", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig11", res)
	if got := len(res.Tables[0].Rows()); got != 5 {
		t.Fatalf("fig11 rows = %d, want 5 eviction policies", got)
	}
}

func TestRunFig14(t *testing.T) {
	skipHeavy(t)
	res, err := runID("fig14", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig14", res)
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("Scale names wrong")
	}
}

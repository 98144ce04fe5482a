package experiments

import (
	"strconv"
	"testing"
)

func TestRunExtAdaptive(t *testing.T) {
	skipHeavy(t)
	res, err := runID("ext-adaptive", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "ext-adaptive", res)
	rows := res.Tables[0].Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 modes", len(rows))
	}
	// The adaptive mode's response time must beat the serial spec.
	serial, err := strconv.ParseFloat(rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := strconv.ParseFloat(rows[3][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive >= serial {
		t.Fatalf("adaptive response time %v not below serial %v", adaptive, serial)
	}
}

func TestRunExtSelfish(t *testing.T) {
	skipHeavy(t)
	res, err := runID("ext-selfish", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "ext-selfish", res)
	if got := len(res.Tables[0].Rows()); got != 6 {
		t.Fatalf("rows = %d, want 6", got)
	}
}

func TestRunExtDetection(t *testing.T) {
	skipHeavy(t)
	res, err := runID("ext-detection", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "ext-detection", res)
	rows := res.Tables[0].Rows()
	// Detection rows must actually blacklist someone at the highest
	// malicious fraction.
	last := rows[len(rows)-1]
	blacklisted, err := strconv.ParseFloat(last[5], 64)
	if err != nil {
		t.Fatal(err)
	}
	if last[0] != "true" || blacklisted == 0 {
		t.Fatalf("no blacklisting in detection rows: %v", rows)
	}
}

func TestRunAblations(t *testing.T) {
	skipHeavy(t)
	for _, id := range []string{"abl-pongsize", "abl-introprob"} {
		res, err := runID(id, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, id, res)
		if res.Tables[0].NumRows() != 5 {
			t.Fatalf("%s rows = %d, want 5", id, res.Tables[0].NumRows())
		}
	}
}

func TestReplicationsPoolRuns(t *testing.T) {
	skipHeavy(t)
	single, err := runID("abl-pongsize", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Replications = 2
	pooled, err := runID("abl-pongsize", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same sweep shape, but independent pooled data.
	if pooled.Tables[0].NumRows() != single.Tables[0].NumRows() {
		t.Fatal("replications changed row count")
	}
}

// TestReplicationsPoolShort drives the replication worker pool through
// the cheapest experiment so `go test -race -short` still exercises
// the pooled fan-out path.
func TestReplicationsPoolShort(t *testing.T) {
	opts := quickOpts()
	opts.Replications = 2
	res, err := runID("fig8", opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "fig8", res)
}

package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRunCmpFamilies(t *testing.T) {
	skipHeavy(t)
	res, err := runID("cmp-families", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "cmp-families", res)
	rows := res.Tables[0].Rows()
	wantFamilies := []string{"GUESS", "Flood", "Gossip", "DHT"}
	if len(rows) != len(wantFamilies) {
		t.Fatalf("cmp-families has %d rows, want %d", len(rows), len(wantFamilies))
	}
	for i, fam := range wantFamilies {
		if rows[i][0] != fam {
			t.Fatalf("row %d family = %q, want %q (rows: %v)", i, rows[i][0], fam, rows)
		}
		sat, err := strconv.ParseFloat(rows[i][2], 64)
		if err != nil {
			t.Fatalf("%s satisfaction %q: %v", fam, rows[i][2], err)
		}
		if sat < 0 || sat > 1 {
			t.Fatalf("%s satisfaction %v outside [0,1]", fam, sat)
		}
		msgs, err := strconv.ParseFloat(rows[i][3], 64)
		if err != nil {
			t.Fatalf("%s msgs/query %q: %v", fam, rows[i][3], err)
		}
		if msgs <= 0 {
			t.Fatalf("%s msgs/query = %v, want > 0", fam, msgs)
		}
	}

	// The rendered table must be byte-identical across repeated runs at
	// the same seed — the comparison's headline determinism guarantee.
	var first strings.Builder
	if _, err := res.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	again, err := runID("cmp-families", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if _, err := again.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("cmp-families not reproducible at fixed seed:\nfirst:\n%s\nsecond:\n%s",
			first.String(), second.String())
	}
}

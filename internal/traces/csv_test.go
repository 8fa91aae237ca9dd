package traces

import (
	"bytes"
	"strings"
	"testing"
)

func TestFlowsCSVRoundTrip(t *testing.T) {
	ds, err := EUISP(9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFlowsCSV(&buf, ds.Flows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFlowsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.Flows) {
		t.Fatalf("round trip lost flows: %d vs %d", len(back), len(ds.Flows))
	}
	for i, f := range ds.Flows {
		g := back[i]
		if g.ID != f.ID || g.Demand != f.Demand || g.Distance != f.Distance ||
			g.Region != f.Region || g.OnNet != f.OnNet {
			t.Fatalf("flow %d changed: %+v vs %+v", i, g, f)
		}
	}
}

func TestReadFlowsCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus,a,b,c,d\n",
		"id,demand_mbps,distance_miles,region,onnet\nx,notnum,1,metro,false\n",
		"id,demand_mbps,distance_miles,region,onnet\nx,1,notnum,metro,false\n",
		"id,demand_mbps,distance_miles,region,onnet\nx,1,1,neverland,false\n",
		"id,demand_mbps,distance_miles,region,onnet\nx,1,1,metro,maybe\n",
		"id,demand_mbps,distance_miles,region,onnet\n", // header only
	}
	for i, c := range cases {
		if _, err := ReadFlowsCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadFlowsCSVRejectsNonFinite: a NaN or infinite demand or distance
// is refused with its line and column, where strconv.ParseFloat alone
// accepts it.
func TestReadFlowsCSVRejectsNonFinite(t *testing.T) {
	const header = "id,demand_mbps,distance_miles,region,onnet\nok,1,1,metro,false\n"
	for _, c := range []struct{ row, column string }{
		{"x,NaN,1,metro,false", "demand"},
		{"x,Inf,1,metro,false", "demand"},
		{"x,-Inf,1,metro,false", "demand"},
		{"x,0,1,metro,false", "demand"},
		{"x,1,NaN,metro,false", "distance"},
		{"x,1,+Inf,metro,false", "distance"},
		{"x,1,-1,metro,false", "distance"},
	} {
		_, err := ReadFlowsCSV(strings.NewReader(header + c.row + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3: "+c.column) {
			t.Errorf("%q: got error %v, want one naming line 3 and %s", c.row, err, c.column)
		}
	}
}

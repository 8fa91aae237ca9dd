package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tieredpricing/internal/netflow"
)

// digest hashes every byte a plan can hand to tierd.
func digest(t *testing.T, seed int64) string {
	t.Helper()
	p, err := NewPlan("bench", seed, 14, 200, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(p.GeoIPCSV())
	h.Write(p.MetaTxt())
	h.Write(TenantsJSON([]Tenant{{ID: "small", Trace: "t", Routers: []uint8{2}, Model: "logit", Strategy: "profit-weighted", Tiers: 3}}))
	for _, c := range []Corpus{p.Preload(2, 20), p.Traffic(40, 1<<20, 1, 2)} {
		for _, d := range c.Datagrams {
			h.Write(d)
		}
	}
	for i := range p.Markers {
		h.Write(p.MarkerDatagram(i, 2))
	}
	for _, q := range p.QuoteMix(256, 0.8, 0.15) {
		h.Write([]byte(q.Src + q.Dst + q.Want))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := digest(t, 1), digest(t, 1), digest(t, 2)
	if a != b {
		t.Errorf("seed 1 generated %s then %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both generated %s", a)
	}
}

// TestTrafficDuplicateShare decodes a two-exporter corpus the way tierd
// does and counts what its dedup rule would.
func TestTrafficDuplicateShare(t *testing.T) {
	p, err := NewPlan("bench", 3, 14, 200, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Traffic(100, 0, 1, 2)
	for pass := uint32(1); pass <= 2; pass++ {
		seen := map[netflow.FlowKey]bool{}
		records, dups := 0, 0
		for _, d := range c.Datagrams {
			Restamp(d, pass)
			_, recs, err := netflow.DecodePacket(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				records++
				if seen[netflow.KeyOf(r)] {
					dups++
				}
				seen[netflow.KeyOf(r)] = true
			}
		}
		if records != c.Records || dups != c.Duplicates || 2*dups != records {
			t.Errorf("pass %d: decoded %d records, %d duplicates; corpus says %d, %d",
				pass, records, dups, c.Records, c.Duplicates)
		}
	}
}

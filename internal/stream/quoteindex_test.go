package stream

import (
	"math/rand"
	"testing"
)

// TestQuoteIndexMatchesMap: the snapshot's quote index answers as the Go
// map it replaced — over keys masked so coarsely that many rows share
// one (the last tier set wins), keys one host apart, the all-zero pair,
// and misses of every kind.
func TestQuoteIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	v4 := func(bits int) uint64 {
		return uint64(rng.Intn(1<<16)<<16|rng.Intn(1<<16)) &^ (1<<(32-bits) - 1)
	}
	pair := func(src, dst uint64) uint64 { return src<<32 | dst }
	for _, n := range []int{0, 1, 7, 300, 5000} {
		x, want := newQuoteIndex(n), map[uint64]int{}
		var keys []uint64
		for i := 0; i < n; i++ {
			k := pair(v4(8+rng.Intn(4)*8)&0x0303ffff, v4(16+rng.Intn(3)*8)&0x0303ffff)
			if rng.Intn(10) == 0 {
				k = 0
			}
			if i%2 == 0 { // neighbours: pairs one destination host apart
				k = pair(0, 10<<24|uint64(i))
			}
			tier := rng.Intn(5)
			x.set(k, tier)
			want[k] = tier
			keys = append(keys, k)
		}
		probes := append(keys, 0, pair(192<<24|2<<8, 198<<24|51<<16|100<<8))
		for i := 0; i < 200; i++ {
			probes = append(probes, pair(0, 10<<24|uint64(2*i+1)))
			probes = append(probes, pair(v4(8+rng.Intn(4)*8)&0x0303ffff, v4(16+rng.Intn(3)*8)&0x0303ffff))
		}
		for _, k := range probes {
			got, gok := x.get(k)
			w, wok := want[k]
			if got != w || gok != wok {
				t.Fatalf("n=%d: get(%#x) = %d %v, map %d %v", n, k, got, gok, w, wok)
			}
		}
	}
	var zero quoteIndex // a Snapshot's before any build
	if _, ok := zero.get(0); ok {
		t.Fatal("an empty index answers a quote")
	}
}

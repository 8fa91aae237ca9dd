package stream

import (
	"math/rand"
	"net/netip"
	"testing"
)

// TestQuoteIndexMatchesMap: the snapshot's quote index answers as the Go
// map it replaced — over keys masked so coarsely that many rows share
// one (the last tier set wins), keys one host apart, the all-zero IPv4
// pair, IPv6 and 4-in-6 pairs kept beside the table, and misses of every
// kind.
func TestQuoteIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	v4 := func(bits int) netip.Addr {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		return netip.PrefixFrom(a, bits).Masked().Addr()
	}
	v6 := func() netip.Addr {
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(rng.Intn(4))})
	}
	for _, n := range []int{0, 1, 7, 300, 5000} {
		x, want := newQuoteIndex(n), map[quoteKey]int{}
		var keys []quoteKey
		for i := 0; i < n; i++ {
			k := quoteKey{src: v4(8 + rng.Intn(4)*8), dst: v4(16 + rng.Intn(3)*8)}
			switch rng.Intn(10) {
			case 0:
				k = quoteKey{src: netip.IPv4Unspecified(), dst: netip.IPv4Unspecified()}
			case 1:
				k = quoteKey{src: v6(), dst: v6()}
			case 2:
				k = quoteKey{src: netip.AddrFrom16(k.src.As16()), dst: k.dst} // 4-in-6: not the IPv4 pair
			}
			if i%2 == 0 { // neighbours: pairs one destination host apart
				k = quoteKey{src: netip.IPv4Unspecified(), dst: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})}
			}
			tier := rng.Intn(5)
			x.set(k, tier)
			want[k] = tier
			keys = append(keys, k)
		}
		probes := append(keys,
			quoteKey{src: netip.IPv4Unspecified(), dst: netip.IPv4Unspecified()},
			quoteKey{src: netip.MustParseAddr("192.0.2.0"), dst: netip.MustParseAddr("198.51.100.0")},
			quoteKey{src: v6(), dst: netip.MustParseAddr("10.0.0.0")},
			quoteKey{})
		for i := 0; i < 200; i++ {
			probes = append(probes, quoteKey{src: netip.IPv4Unspecified(), dst: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(2*i + 1)})})
			probes = append(probes, quoteKey{src: v4(8 + rng.Intn(4)*8), dst: v4(16 + rng.Intn(3)*8)})
		}
		for _, k := range probes {
			got, gok := x.get(k)
			w, wok := want[k]
			if got != w || gok != wok {
				t.Fatalf("n=%d: get(%v>%v) = %d %v, map %d %v", n, k.src, k.dst, got, gok, w, wok)
			}
		}
	}
	var zero quoteIndex // a Snapshot's before any build
	if _, ok := zero.get(quoteKey{src: netip.IPv4Unspecified(), dst: netip.IPv4Unspecified()}); ok {
		t.Fatal("an empty index answers a quote")
	}
}

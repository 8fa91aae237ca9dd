package bgp

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func TestASPathRoundTrip(t *testing.T) {
	u := Update{
		ASPath:    []uint16{64512, 3356, 1299},
		NextHop:   netip.MustParseAddr("10.0.0.1"),
		Announced: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	msg, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBody(MsgUpdate, msg[HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Update)
	if len(g.ASPath) != 3 || g.ASPath[0] != 64512 || g.ASPath[2] != 1299 {
		t.Fatalf("AS path = %v", g.ASPath)
	}
}

func TestASPathTooLong(t *testing.T) {
	u := Update{
		ASPath:    make([]uint16, 256),
		Announced: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	if _, err := EncodeUpdate(u); err == nil {
		t.Error("expected error for oversized AS path")
	}
}

func TestRIBLoopPrevention(t *testing.T) {
	rib := NewRIB()
	rib.LocalAS = 64513
	// A clean route installs.
	if err := rib.Apply(&Update{
		ASPath:    []uint16{64512},
		Announced: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}); err != nil {
		t.Fatal(err)
	}
	if rib.Len() != 1 {
		t.Fatalf("len = %d", rib.Len())
	}
	// A looped route (our AS in the path) is dropped and counted.
	if err := rib.Apply(&Update{
		ASPath:    []uint16{64512, 64513},
		Announced: []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")},
	}); err != nil {
		t.Fatal(err)
	}
	if rib.Len() != 1 {
		t.Fatalf("looped route installed: len = %d", rib.Len())
	}
	if rib.Looped() != 1 {
		t.Fatalf("looped = %d, want 1", rib.Looped())
	}
	// Withdrawals still apply even when the announce part loops.
	if err := rib.Apply(&Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		ASPath:    []uint16{64513},
		Announced: []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")},
	}); err != nil {
		t.Fatal(err)
	}
	if rib.Len() != 0 {
		t.Fatalf("withdrawal ignored: len = %d", rib.Len())
	}
}

func TestSpeakerStampsASPath(t *testing.T) {
	s := &Speaker{local: Open{AS: 64512}, nextHop: netip.MustParseAddr("192.0.2.1")}
	if err := s.Reprice([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")},
		func(netip.Prefix) int { return 0 }, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if len(s.replay) != 1 || len(s.replay[0].ASPath) != 1 || s.replay[0].ASPath[0] != 64512 {
		t.Fatalf("replay = %+v", s.replay)
	}
}

// TestRIBLookupMatchesLinearScan drives a RIB and a shadow table through
// announcements of overlapping prefixes (/0 and /32 among them),
// withdrawals and re-announcements, and requires Lookup to answer every
// query — IPv4, IPv6, 4-in-6 and invalid — as a scan of every route for
// the longest containing prefix does.
func TestRIBLookupMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addr := func() netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(6))})
	}
	lengths := []int{0, 8, 15, 16, 20, 24, 30, 32}
	prefix := func() netip.Prefix { return netip.PrefixFrom(addr(), lengths[rng.Intn(len(lengths))]).Masked() }
	rib, shadow := NewRIB(), map[netip.Prefix]Route{}
	scan := func(ip netip.Addr) (best Route, found bool) {
		for _, r := range shadow {
			if r.Prefix.Contains(ip) && (!found || r.Prefix.Bits() > best.Prefix.Bits()) {
				best, found = r, true
			}
		}
		return best, found
	}
	for op := 0; op < 400; op++ {
		u := Update{NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(op)}), ASPath: []uint16{uint16(op)},
			Tier: &TierCommunity{Tier: uint16(op % 4), PriceMilli: uint32(op)}}
		for i := rng.Intn(4); i > 0; i-- {
			u.Withdrawn = append(u.Withdrawn, prefix())
		}
		for i := rng.Intn(5); i > 0; i-- {
			u.Announced = append(u.Announced, prefix())
		}
		if err := rib.Apply(&u); err != nil {
			t.Fatal(err)
		}
		for _, p := range u.Withdrawn {
			delete(shadow, p)
		}
		for _, p := range u.Announced {
			tc := *u.Tier
			shadow[p] = Route{Prefix: p, NextHop: u.NextHop, ASPath: u.ASPath, Tier: &tc}
		}
		if rib.Len() != len(shadow) {
			t.Fatalf("op %d: %d routes, shadow holds %d", op, rib.Len(), len(shadow))
		}
		for q := 0; q < 20; q++ {
			ip := addr()
			for _, probe := range []netip.Addr{ip, netip.AddrFrom16(ip.As16()), netip.MustParseAddr("2001:db8::1"), {}} {
				got, gok := rib.Lookup(probe)
				want, wok := scan(probe)
				if gok != wok || gok && (got.Prefix != want.Prefix || got.NextHop != want.NextHop ||
					*got.Tier != *want.Tier || !slices.Equal(got.ASPath, want.ASPath)) {
					t.Fatalf("op %d: Lookup(%v) = %+v %v, scan %+v %v", op, probe, got, gok, want, wok)
				}
			}
		}
	}
	ip := netip.MustParseAddr("10.1.2.3")
	if allocs := testing.AllocsPerRun(100, func() { rib.Lookup(ip) }); allocs != 0 {
		t.Errorf("Lookup allocates %v objects, want 0", allocs)
	}
}

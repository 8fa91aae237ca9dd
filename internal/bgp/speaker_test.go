package bgp

import (
	"net/netip"
	"reflect"
	"testing"
)

func newTestSpeaker(t *testing.T) *Speaker {
	t.Helper()
	s, err := NewSpeaker("127.0.0.1:0", Open{AS: 64512, HoldTime: 180, ID: 1},
		netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialCustomer(t *testing.T, addr string, as uint16) *Customer {
	t.Helper()
	c, err := DialCustomer(addr, Open{AS: as, HoldTime: 180, ID: uint32(as)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func prefixN(t *testing.T, i int) netip.Prefix {
	t.Helper()
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

func TestSpeakerReplaysTableToNewCustomers(t *testing.T) {
	s := newTestSpeaker(t)
	var prefixes []netip.Prefix
	for i := 0; i < 1200; i++ { // forces update chunking
		prefixes = append(prefixes, prefixN(t, i))
	}
	tierOf := func(p netip.Prefix) int { return int(p.Addr().As4()[2]) % 3 }
	prices := []float64{10, 15, 22}
	if err := s.Reprice(prefixes, tierOf, prices); err != nil {
		t.Fatal(err)
	}

	// A customer connecting AFTER the reprice gets the full table, and
	// holds what applying AnnounceTiered's batch directly — the snapshot
	// path — installs.
	c := dialCustomer(t, s.Addr(), 64513)
	if c.RIB().Len() != 1200 {
		t.Fatalf("RIB has %d routes after the replay, want 1200", c.RIB().Len())
	}
	r, ok := c.RIB().Lookup(netip.MustParseAddr("10.0.1.5"))
	if !ok || r.Tier == nil || int(r.Tier.Tier) != 1 {
		t.Fatalf("route = %+v, want tier 1", r)
	}
	if r.Tier.PriceMilli != 15000 {
		t.Fatalf("price = %d, want 15000", r.Tier.PriceMilli)
	}
	direct := NewRIB()
	updates, err := AnnounceTiered(prefixes, netip.MustParseAddr("192.0.2.1"), tierOf, prices)
	if err != nil {
		t.Fatal(err)
	}
	for i := range updates {
		updates[i].ASPath = []uint16{64512}
		if err := direct.Apply(&updates[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.RIB().Routes(), direct.Routes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed RIB differs from AnnounceTiered's: %d routes vs %d", len(got), len(want))
	}
}

func TestSpeakerPushesRepriceDiff(t *testing.T) {
	s := newTestSpeaker(t)
	p0, p1, p2 := prefixN(t, 0), prefixN(t, 1), prefixN(t, 2)
	if err := s.Reprice([]netip.Prefix{p0, p1}, func(netip.Prefix) int { return 0 },
		[]float64{10}); err != nil {
		t.Fatal(err)
	}
	c := dialCustomer(t, s.Addr(), 64513)
	if c.RIB().Len() != 2 {
		t.Fatalf("RIB has %d routes after the replay, want 2", c.RIB().Len())
	}

	// Re-bundle: p0 moves to tier 1, p1 is withdrawn, p2 appears.
	if err := s.Reprice([]netip.Prefix{p0, p2},
		func(p netip.Prefix) int {
			if p == p0 {
				return 1
			}
			return 0
		},
		[]float64{9, 30}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	r0, ok0 := c.RIB().Lookup(p0.Addr())
	_, ok1 := c.RIB().Lookup(p1.Addr().Next())
	r2, ok2 := c.RIB().Lookup(p2.Addr().Next())
	if c.RIB().Len() != 2 || !ok0 || ok1 || !ok2 ||
		r0.Tier == nil || r0.Tier.Tier != 1 || r0.Tier.PriceMilli != 30000 ||
		r2.Tier == nil || r2.Tier.Tier != 0 || r2.Tier.PriceMilli != 9000 {
		t.Fatalf("diff not applied: p0=%v(%v) p1ok=%v p2=%v(%v)", r0, ok0, ok1, r2, ok2)
	}
}

func TestSpeakerMultipleCustomers(t *testing.T) {
	s := newTestSpeaker(t)
	customers := make([]*Customer, 3)
	for i := range customers {
		customers[i] = dialCustomer(t, s.Addr(), uint16(64600+i))
	}
	if s.Sessions() != 3 {
		t.Fatalf("sessions = %d, want 3", s.Sessions())
	}
	if err := s.Reprice([]netip.Prefix{prefixN(t, 7)},
		func(netip.Prefix) int { return 0 }, []float64{12.5}); err != nil {
		t.Fatal(err)
	}
	for _, c := range customers {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		r, ok := c.RIB().Lookup(prefixN(t, 7).Addr().Next())
		if c.RIB().Len() != 1 || !ok || r.Tier == nil || r.Tier.PriceMilli != 12500 {
			t.Fatalf("customer route = %+v", r)
		}
	}
}

func TestSpeakerRepriceValidation(t *testing.T) {
	s := newTestSpeaker(t)
	if err := s.Reprice([]netip.Prefix{prefixN(t, 0)},
		func(netip.Prefix) int { return 3 }, []float64{1}); err == nil {
		t.Error("expected error for out-of-range tier")
	}
	if err := s.Reprice([]netip.Prefix{{}},
		func(netip.Prefix) int { return 0 }, []float64{1}); err == nil {
		t.Error("expected error for invalid prefix")
	}
}

func TestSpeakerCloseIdempotentAndRejectsIPv6Hop(t *testing.T) {
	if _, err := NewSpeaker("127.0.0.1:0", Open{}, netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Error("expected error for IPv6 next hop")
	}
	s, err := NewSpeaker("127.0.0.1:0", Open{AS: 1}, netip.MustParseAddr("192.0.2.1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiffTablesMinimality(t *testing.T) {
	s := &Speaker{local: Open{AS: 64512}, nextHop: netip.MustParseAddr("192.0.2.1")}
	a := netip.MustParsePrefix("10.0.0.0/24")
	b := netip.MustParsePrefix("10.0.1.0/24")
	install := func(prefixes []netip.Prefix, tierOf func(netip.Prefix) int) []Update {
		t.Helper()
		replay, err := AnnounceTiered(prefixes, s.nextHop, tierOf, []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return s.install(replay)
	}
	install([]netip.Prefix{a, b}, func(p netip.Prefix) int {
		if p == a {
			return 0
		}
		return 1
	})
	// b unchanged, a re-tiered: the push must not mention b.
	retier := func(netip.Prefix) int { return 1 }
	updates := install([]netip.Prefix{a, b}, retier)
	if len(updates) != 1 {
		t.Fatalf("updates = %+v, want exactly one", updates)
	}
	if len(updates[0].Announced) != 1 || updates[0].Announced[0] != a || updates[0].Tier.Tier != 1 {
		t.Fatalf("push should re-announce only a, in tier 1: %+v", updates[0])
	}
	// An identical table pushes nothing; a smaller one only withdraws.
	if got := install([]netip.Prefix{b, a}, retier); len(got) != 0 {
		t.Fatalf("no-op push = %+v", got)
	}
	if got := install([]netip.Prefix{b}, retier); len(got) != 1 || len(got[0].Announced) != 0 ||
		len(got[0].Withdrawn) != 1 || got[0].Withdrawn[0] != a {
		t.Fatalf("shrinking push = %+v, want a withdrawn", got)
	}
}

// TestAnnounceTieredFitsMessages: a tier far larger than one UPDATE
// holds is split into UPDATEs that each encode, and together announce
// every prefix once, with its tier's community.
func TestAnnounceTieredFitsMessages(t *testing.T) {
	prefixes := make([]netip.Prefix, 20000)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	tierOf := func(p netip.Prefix) int { return int(p.Addr().As4()[2]) % 4 }
	prices := []float64{8, 11.5, 17.25, 30}
	updates, err := AnnounceTiered(prefixes, netip.MustParseAddr("192.0.2.1"), tierOf, prices)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[netip.Prefix]int, len(prefixes))
	for _, u := range updates {
		if _, err := EncodeUpdate(u); err != nil {
			t.Fatalf("update of %d prefixes does not encode: %v", len(u.Announced), err)
		}
		for _, p := range u.Announced {
			seen[p]++
			tier := tierOf(p)
			want := TierCommunity{Tier: uint16(tier), PriceMilli: uint32(prices[tier]*1000 + 0.5)}
			if u.Tier == nil || *u.Tier != want {
				t.Fatalf("%v tagged %+v, want %+v", p, u.Tier, want)
			}
		}
	}
	for _, p := range prefixes {
		if seen[p] != 1 {
			t.Fatalf("%v announced %d times, want once", p, seen[p])
		}
	}
	if len(seen) != len(prefixes) {
		t.Fatalf("%d prefixes announced, want %d", len(seen), len(prefixes))
	}
}

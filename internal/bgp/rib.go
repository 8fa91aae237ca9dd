package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
)

// Route is a RIB entry: a destination prefix with its next hop, the AS
// path it arrived with, and, when the upstream tagged it, the pricing
// tier it belongs to.
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
	// ASPath is the announcement's AS_PATH (nearest AS first).
	ASPath []uint16
	// Tier is the tag from the upstream's extended community; nil for
	// untagged routes.
	Tier *TierCommunity
}

// RIB is a routing information base with longest-prefix-match lookup —
// the structure the flow-based accounting pipeline of §5.2 consults to
// assign each flow to a pricing tier. Safe for concurrent use.
//
// Setting LocalAS to a non-zero value enables BGP loop prevention:
// announcements whose AS_PATH already contains LocalAS are dropped
// (counted in Looped) instead of installed.
type RIB struct {
	// LocalAS, when non-zero, rejects announcements containing it in
	// their AS_PATH. Set before the first Apply.
	LocalAS uint16

	mu     sync.RWMutex
	routes map[netip.Prefix]Route
	// lens[b] counts the routes of prefix length b: a lookup probes the
	// map at the lengths present, longest first, where one length holds
	// at most one prefix containing the address.
	lens   [33]int32
	looped int
}

// NewRIB creates an empty RIB.
func NewRIB() *RIB {
	return &RIB{routes: make(map[netip.Prefix]Route)}
}

// Apply merges an UPDATE into the RIB: withdrawals first, then
// announcements, as RFC 4271 prescribes.
func (rib *RIB) Apply(u *Update) error {
	rib.mu.Lock()
	defer rib.mu.Unlock()
	for _, p := range u.Withdrawn {
		if _, ok := rib.routes[p.Masked()]; ok {
			delete(rib.routes, p.Masked())
			rib.lens[p.Bits()]--
		}
	}
	if rib.LocalAS != 0 && len(u.Announced) > 0 {
		for _, as := range u.ASPath {
			if as == rib.LocalAS {
				// Loop: our own AS already forwarded this route.
				rib.looped += len(u.Announced)
				return nil
			}
		}
	}
	// One copy of the path and the community per UPDATE, shared by its
	// routes: nothing writes through a Route's slice or pointer.
	r := Route{NextHop: u.NextHop, ASPath: slices.Clip(append([]uint16(nil), u.ASPath...))}
	if u.Tier != nil {
		tc := *u.Tier
		r.Tier = &tc
	}
	for _, p := range u.Announced {
		if !p.IsValid() || !p.Addr().Is4() {
			return fmt.Errorf("bgp: invalid announced prefix %v", p)
		}
		r.Prefix = p.Masked()
		if _, ok := rib.routes[r.Prefix]; !ok {
			rib.lens[p.Bits()]++
		}
		rib.routes[r.Prefix] = r
	}
	return nil
}

// Lookup returns the longest-prefix-match route for ip. Routes are IPv4
// (Apply refuses others), so no other address matches one.
func (rib *RIB) Lookup(ip netip.Addr) (Route, bool) {
	if !ip.Is4() {
		return Route{}, false
	}
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	for b := len(rib.lens) - 1; b >= 0; b-- {
		if rib.lens[b] == 0 {
			continue
		}
		if r, ok := rib.routes[netip.PrefixFrom(ip, b).Masked()]; ok {
			return r, true
		}
	}
	return Route{}, false
}

// Looped returns how many announced prefixes were dropped by loop
// prevention.
func (rib *RIB) Looped() int {
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	return rib.looped
}

// Len returns the number of routes.
func (rib *RIB) Len() int {
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	return len(rib.routes)
}

// Routes returns all routes sorted by prefix string (for stable output).
func (rib *RIB) Routes() []Route {
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	out := make([]Route, 0, len(rib.routes))
	for _, r := range rib.routes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out
}

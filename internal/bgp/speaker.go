package bgp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// Speaker is the provider side of §5.1 at service scale: it listens for
// customer sessions, replays its current tier-tagged table to each new
// customer, and pushes incremental UPDATEs to every connected customer
// when the operator re-prices (re-bundles) destinations — the paper's
// "simply apply a profit-weighted bundling strategy to re-factor their
// pricing ... possibly without even making many changes to the network
// configuration". The replay and every push end with End-of-RIB (RFC
// 4724: an UPDATE with nothing in it), so a Customer knows from the wire
// when it holds a whole table.
type Speaker struct {
	local   Open
	nextHop netip.Addr
	ln      net.Listener

	// mu guards the table and the sessions, and is held through the
	// writes, so pushes and replays reach each customer in the order
	// their tables were installed.
	mu       sync.Mutex
	replay   []Update // the table, as the full announcement of it
	sessions map[*Session]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewSpeaker starts a provider speaker listening on addr
// (e.g. "127.0.0.1:0").
func NewSpeaker(addr string, local Open, nextHop netip.Addr) (*Speaker, error) {
	if !nextHop.Is4() {
		return nil, errors.New("bgp: speaker next hop must be IPv4")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bgp: listen: %w", err)
	}
	s := &Speaker{
		local:    local,
		nextHop:  nextHop,
		ln:       ln,
		sessions: map[*Session]struct{}{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address customers dial.
func (s *Speaker) Addr() string { return s.ln.Addr().String() }

// Sessions returns the number of connected customers.
func (s *Speaker) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Reprice installs a new tier table: prefixes absent from the new table
// are withdrawn, new or re-tiered prefixes are announced, and the
// resulting UPDATE batch is pushed to every connected customer. tierOf
// maps each prefix to an index into prices.
func (s *Speaker) Reprice(prefixes []netip.Prefix, tierOf func(netip.Prefix) int, prices []float64) error {
	replay, err := AnnounceTiered(prefixes, s.nextHop, tierOf, prices)
	if err != nil {
		return err
	}
	path := []uint16{s.local.AS}
	for i := range replay {
		replay[i].ASPath = path
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	push := s.install(replay)
	var firstErr error
	for sess := range s.sessions {
		if err := sendPush(sess, push); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// install makes replay, the full announcement of a table, the speaker's
// table and returns the push that carries a customer from the old table
// to it: withdrawals of the prefixes it drops, then replay's UPDATEs cut
// down to the prefixes that are new or re-tagged (none grows, so each
// still fits a message). s.mu must be held.
func (s *Speaker) install(replay []Update) []Update {
	old := s.replay
	s.replay = replay
	if len(old) == 0 {
		return replay // every prefix is new
	}
	was, is := tagsOf(old), tagsOf(replay)
	var push []Update
	for _, u := range old {
		var gone []netip.Prefix
		for _, p := range u.Announced {
			if _, ok := is[p.Masked()]; !ok {
				gone = append(gone, p)
			}
		}
		if len(gone) > 0 {
			push = append(push, Update{Withdrawn: gone})
		}
	}
	for _, u := range replay {
		var changed []netip.Prefix
		for _, p := range u.Announced {
			if tag, ok := was[p.Masked()]; !ok || tag != *u.Tier {
				changed = append(changed, p)
			}
		}
		if len(changed) > 0 {
			u.Announced = changed
			push = append(push, u)
		}
	}
	return push
}

// tagsOf maps each prefix a batch announces to its tier community.
func tagsOf(batch []Update) map[netip.Prefix]TierCommunity {
	tags := make(map[netip.Prefix]TierCommunity)
	for _, u := range batch {
		for _, p := range u.Announced {
			tags[p.Masked()] = *u.Tier
		}
	}
	return tags
}

// Close stops accepting and tears down all sessions.
func (s *Speaker) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sess := range sessions {
		sess.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Speaker) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// serve establishes one customer session, replays the full table, then
// keeps the session registered (draining inbound keepalives) until the
// customer hangs up.
func (s *Speaker) serve(conn net.Conn) {
	sess, err := Establish(conn, s.local)
	if err != nil {
		conn.Close()
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sess.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	err = sendPush(sess, s.replay)
	s.mu.Unlock()
	for err == nil {
		_, err = sess.Recv()
	}
	s.drop(sess) // a session error or the customer's close
}

func (s *Speaker) drop(sess *Session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	sess.Close()
}

// sendPush transmits a batch of updates on one session and ends it with
// End-of-RIB.
func sendPush(sess *Session, updates []Update) error {
	for _, u := range updates {
		if err := sess.SendUpdate(u); err != nil {
			return err
		}
	}
	return sess.SendUpdate(Update{})
}

// maxPrefixesPerUpdate keeps every UPDATE safely inside MaxMsgLen
// (a /32 prefix costs 5 NLRI bytes; 500·5 + attributes ≪ 4096).
const maxPrefixesPerUpdate = 500

// AnnounceTiered builds the per-tier UPDATE batch an upstream sends a
// customer, and is the one builder of tier-tagged announcements: it
// checks each prefix (valid, IPv4) and the tier tierOf maps it to (an
// index into prices), groups the prefixes by their tier's community
// (§5.1) — in tier order, each group in input order — and splits each
// group into UPDATEs of at most maxPrefixesPerUpdate prefixes, so every
// one fits the message size limit. prices are in $/Mbps/month, converted
// to milli-dollars on the wire.
func AnnounceTiered(prefixes []netip.Prefix, nextHop netip.Addr,
	tierOf func(netip.Prefix) int, prices []float64) ([]Update, error) {
	tags := make([]TierCommunity, len(prices))
	for t, price := range prices {
		tags[t] = TierCommunity{Tier: uint16(t), PriceMilli: uint32(price*1000 + 0.5)}
	}
	groups := make([][]netip.Prefix, len(prices))
	for _, p := range prefixes {
		if !p.IsValid() || !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: invalid IPv4 prefix %v", p)
		}
		t := tierOf(p)
		if t < 0 || t >= len(prices) {
			return nil, fmt.Errorf("bgp: prefix %v mapped to tier %d outside price list", p, t)
		}
		groups[t] = append(groups[t], p)
	}
	var out []Update
	for t, group := range groups {
		for len(group) > 0 {
			n := min(len(group), maxPrefixesPerUpdate)
			out = append(out, Update{NextHop: nextHop, Tier: &tags[t], Announced: group[:n:n]})
			group = group[n:]
		}
	}
	return out, nil
}

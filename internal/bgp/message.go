// Package bgp implements the tier-association mechanism of §5.1: a
// BGP-flavored wire protocol over which an upstream ISP announces routes
// tagged with extended communities that carry the pricing tier of each
// destination ("ISPs can use BGP extended communities to perform this
// tagging. Because the communities propagate with the route, the customer
// can establish routing policies ... based on these tags").
//
// The implementation is a faithful subset of RFC 4271 framing — 16-byte
// marker, length, type; OPEN/UPDATE/KEEPALIVE/NOTIFICATION messages;
// variable-length NLRI; path attributes including EXTENDED_COMMUNITIES —
// sufficient to run real sessions over TCP and to drive the accounting
// pipeline of §5.2. It is not a complete BGP speaker (no route selection
// among multiple peers, no capabilities negotiation).
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Framing constants.
const (
	MarkerLen   = 16
	HeaderLen   = MarkerLen + 3
	MaxMsgLen   = 4096
	ProtoVer    = 4
	AttrFlags   = 0xC0 // optional transitive
	attrExtCom  = 16   // EXTENDED_COMMUNITIES attribute type
	attrASPath  = 2
	attrNextHop = 3
	// asPathSequence is the AS_PATH segment type for an ordered path.
	asPathSequence = 2
)

// TierCommunity is the extended community that tags a route with its
// pricing tier: a transitive opaque extended community (type 0x43) with
// an application-chosen subtype, carrying the tier index and the tier's
// unit price in milli-dollars per Mbps.
type TierCommunity struct {
	// Tier is the pricing-tier index (0 is the cheapest tier).
	Tier uint16
	// PriceMilli is the tier's price in 1/1000 $/Mbps/month.
	PriceMilli uint32
}

// Extended-community type octets for tier tags.
const (
	tierComType    = 0x43 // transitive opaque
	tierComSubtype = 0x54 // 'T'
)

// encode packs the community into its 8-byte wire form.
func (tc TierCommunity) encode() [8]byte {
	var b [8]byte
	b[0] = tierComType
	b[1] = tierComSubtype
	binary.BigEndian.PutUint16(b[2:4], tc.Tier)
	binary.BigEndian.PutUint32(b[4:8], tc.PriceMilli)
	return b
}

// parseTierCommunity unpacks a tier tag, reporting ok=false for foreign
// communities.
func parseTierCommunity(b [8]byte) (TierCommunity, bool) {
	if b[0] != tierComType || b[1] != tierComSubtype {
		return TierCommunity{}, false
	}
	return TierCommunity{
		Tier:       binary.BigEndian.Uint16(b[2:4]),
		PriceMilli: binary.BigEndian.Uint32(b[4:8]),
	}, true
}

// Open is an OPEN message.
type Open struct {
	AS       uint16
	HoldTime uint16
	ID       uint32 // BGP identifier
}

// Update is an UPDATE message carrying tier-tagged route announcements
// and withdrawals. All announced prefixes share the update's attributes,
// as in real BGP.
type Update struct {
	Withdrawn []netip.Prefix
	// ASPath is the ordered AS_PATH (nearest AS first); empty means no
	// AS_PATH attribute. Receivers use it for loop prevention.
	ASPath    []uint16
	NextHop   netip.Addr     // unset means no NEXT_HOP attribute
	Tier      *TierCommunity // nil means untagged
	Announced []netip.Prefix
}

// endOfRIB reports whether u is End-of-RIB (RFC 4724): an UPDATE with no
// routes and no attributes. RIB.Apply takes it as the no-op it is.
func (u *Update) endOfRIB() bool {
	return len(u.Withdrawn) == 0 && len(u.Announced) == 0 && len(u.ASPath) == 0 &&
		!u.NextHop.IsValid() && u.Tier == nil
}

// Notification reports a protocol error before close.
type Notification struct {
	Code    uint8
	Subcode uint8
}

// marker is the all-ones RFC 4271 header marker.
var marker = func() [MarkerLen]byte {
	var m [MarkerLen]byte
	for i := range m {
		m[i] = 0xFF
	}
	return m
}()

// appendHeader writes the 19-byte header for a body of the given length.
func appendHeader(b []byte, msgType uint8, bodyLen int) ([]byte, error) {
	total := HeaderLen + bodyLen
	if total > MaxMsgLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds %d", total, MaxMsgLen)
	}
	b = append(b, marker[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = append(b, msgType)
	return b, nil
}

// EncodeOpen serializes an OPEN message.
func EncodeOpen(o Open) ([]byte, error) {
	body := make([]byte, 0, 10)
	body = append(body, ProtoVer)
	body = binary.BigEndian.AppendUint16(body, o.AS)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	body = binary.BigEndian.AppendUint32(body, o.ID)
	body = append(body, 0) // no optional parameters
	out, err := appendHeader(nil, MsgOpen, len(body))
	if err != nil {
		return nil, err
	}
	return append(out, body...), nil
}

// EncodeKeepalive serializes a KEEPALIVE message.
func EncodeKeepalive() ([]byte, error) {
	return appendHeader(nil, MsgKeepalive, 0)
}

// EncodeNotification serializes a NOTIFICATION message.
func EncodeNotification(n Notification) ([]byte, error) {
	out, err := appendHeader(nil, MsgNotification, 2)
	if err != nil {
		return nil, err
	}
	return append(out, n.Code, n.Subcode), nil
}

// appendPrefix writes a prefix in BGP NLRI form (length octet + minimal
// address octets).
func appendPrefix(b []byte, p netip.Prefix) ([]byte, error) {
	if !p.IsValid() || !p.Addr().Is4() {
		return nil, fmt.Errorf("bgp: invalid IPv4 prefix %v", p)
	}
	bits := p.Bits()
	b = append(b, byte(bits))
	addr := p.Masked().Addr().As4()
	b = append(b, addr[:(bits+7)/8]...)
	return b, nil
}

// parsePrefix reads one NLRI prefix, returning it and the bytes consumed.
func parsePrefix(b []byte) (netip.Prefix, int, error) {
	if len(b) < 1 {
		return netip.Prefix{}, 0, errors.New("bgp: truncated NLRI")
	}
	bits := int(b[0])
	if bits > 32 {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: NLRI length %d > 32", bits)
	}
	n := (bits + 7) / 8
	if len(b) < 1+n {
		return netip.Prefix{}, 0, errors.New("bgp: truncated NLRI body")
	}
	var addr [4]byte
	copy(addr[:], b[1:1+n])
	return netip.PrefixFrom(netip.AddrFrom4(addr), bits), 1 + n, nil
}

// EncodeUpdate serializes an UPDATE message.
func EncodeUpdate(u Update) ([]byte, error) {
	var withdrawn []byte
	var err error
	for _, p := range u.Withdrawn {
		if withdrawn, err = appendPrefix(withdrawn, p); err != nil {
			return nil, err
		}
	}

	var attrs []byte
	if len(u.ASPath) > 0 {
		if len(u.ASPath) > 255 {
			return nil, fmt.Errorf("bgp: AS path too long (%d)", len(u.ASPath))
		}
		seg := make([]byte, 0, 2+2*len(u.ASPath))
		seg = append(seg, asPathSequence, byte(len(u.ASPath)))
		for _, as := range u.ASPath {
			seg = binary.BigEndian.AppendUint16(seg, as)
		}
		attrs = append(attrs, AttrFlags, attrASPath, byte(len(seg)))
		attrs = append(attrs, seg...)
	}
	if u.NextHop.IsValid() {
		if !u.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: next hop %v is not IPv4", u.NextHop)
		}
		hop := u.NextHop.As4()
		attrs = append(attrs, AttrFlags, attrNextHop, 4)
		attrs = append(attrs, hop[:]...)
	}
	if u.Tier != nil {
		com := u.Tier.encode()
		attrs = append(attrs, AttrFlags, attrExtCom, 8)
		attrs = append(attrs, com[:]...)
	}

	var nlri []byte
	for _, p := range u.Announced {
		if nlri, err = appendPrefix(nlri, p); err != nil {
			return nil, err
		}
	}

	body := make([]byte, 0, 4+len(withdrawn)+len(attrs)+len(nlri))
	body = binary.BigEndian.AppendUint16(body, uint16(len(withdrawn)))
	body = append(body, withdrawn...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = append(body, nlri...)

	out, err := appendHeader(nil, MsgUpdate, len(body))
	if err != nil {
		return nil, err
	}
	return append(out, body...), nil
}

// DecodeBody parses a message body given its type (the header is consumed
// by the session reader). It returns *Open, *Update, *Notification, or
// nil for KEEPALIVE.
func DecodeBody(msgType uint8, body []byte) (interface{}, error) {
	switch msgType {
	case MsgOpen:
		if len(body) < 10 {
			return nil, errors.New("bgp: short OPEN")
		}
		if body[0] != ProtoVer {
			return nil, fmt.Errorf("bgp: unsupported version %d", body[0])
		}
		return &Open{
			AS:       binary.BigEndian.Uint16(body[1:3]),
			HoldTime: binary.BigEndian.Uint16(body[3:5]),
			ID:       binary.BigEndian.Uint32(body[5:9]),
		}, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, errors.New("bgp: KEEPALIVE with body")
		}
		return nil, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, errors.New("bgp: short NOTIFICATION")
		}
		return &Notification{Code: body[0], Subcode: body[1]}, nil
	case MsgUpdate:
		return decodeUpdate(body)
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", msgType)
	}
}

func decodeUpdate(body []byte) (*Update, error) {
	if len(body) < 4 {
		return nil, errors.New("bgp: short UPDATE")
	}
	u := &Update{}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	rest := body[2:]
	if len(rest) < wLen {
		return nil, errors.New("bgp: truncated withdrawn routes")
	}
	w := rest[:wLen]
	for len(w) > 0 {
		p, n, err := parsePrefix(w)
		if err != nil {
			return nil, err
		}
		u.Withdrawn = append(u.Withdrawn, p)
		w = w[n:]
	}
	rest = rest[wLen:]
	if len(rest) < 2 {
		return nil, errors.New("bgp: missing attribute length")
	}
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) < aLen {
		return nil, errors.New("bgp: truncated attributes")
	}
	attrs := rest[:aLen]
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, errors.New("bgp: truncated attribute header")
		}
		typ := attrs[1]
		alen := int(attrs[2])
		if len(attrs) < 3+alen {
			return nil, errors.New("bgp: truncated attribute value")
		}
		val := attrs[3 : 3+alen]
		switch typ {
		case attrASPath:
			if alen < 2 || int(val[1])*2+2 != alen || val[0] != asPathSequence {
				return nil, errors.New("bgp: malformed AS_PATH")
			}
			n := int(val[1])
			u.ASPath = make([]uint16, n)
			for k := 0; k < n; k++ {
				u.ASPath[k] = binary.BigEndian.Uint16(val[2+2*k : 4+2*k])
			}
		case attrNextHop:
			if alen != 4 {
				return nil, errors.New("bgp: bad NEXT_HOP length")
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		case attrExtCom:
			if alen%8 != 0 {
				return nil, errors.New("bgp: bad extended-community length")
			}
			for off := 0; off < alen; off += 8 {
				if tc, ok := parseTierCommunity([8]byte(val[off : off+8])); ok {
					c := tc
					u.Tier = &c
				}
			}
		default:
			// Unknown optional attributes are tolerated, as in BGP.
		}
		attrs = attrs[3+alen:]
	}
	nlri := rest[aLen:]
	for len(nlri) > 0 {
		p, n, err := parsePrefix(nlri)
		if err != nil {
			return nil, err
		}
		u.Announced = append(u.Announced, p)
		nlri = nlri[n:]
	}
	return u, nil
}

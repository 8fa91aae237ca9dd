// Package accounting implements the two tier-accounting architectures of
// §5.2 of the paper (Figure 17):
//
//   - Link-based accounting: each pricing tier gets its own (physical or
//     virtual) link with a dedicated BGP session; the provider simply
//     polls per-link SNMP octet counters and bills each link at its
//     tier's rate. Simple, but the provisioning overhead grows with the
//     number of tiers.
//   - Flow-based accounting: one link and one routing session; a
//     collector joins NetFlow records with the tier-tagged RIB
//     (bgp.TierCommunity) after the fact and bills per tier.
//
// Both paths produce a Bill; on identical traffic they must agree, which
// the tests and the fig17 experiment verify.
package accounting

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"tieredpricing/internal/bgp"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
)

// CounterSample is one SNMP-style reading of a link's octet counter.
type CounterSample struct {
	IfIndex uint16
	Tier    int
	Octets  uint64
}

// LinkMeter models the link-based architecture: one interface per tier,
// each with a monotonically increasing octet counter, polled periodically
// (Figure 17a). Safe for concurrent counting.
type LinkMeter struct {
	mu     sync.Mutex
	byIf   map[uint16]*linkCounter
	byTier map[int]uint16
}

type linkCounter struct {
	tier   int
	octets uint64
}

// NewLinkMeter creates a meter with no links.
func NewLinkMeter() *LinkMeter {
	return &LinkMeter{byIf: map[uint16]*linkCounter{}, byTier: map[int]uint16{}}
}

// AddLink provisions the link carrying a tier's traffic.
func (m *LinkMeter) AddLink(ifIndex uint16, tier int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byIf[ifIndex]; dup {
		return fmt.Errorf("accounting: interface %d already provisioned", ifIndex)
	}
	if _, dup := m.byTier[tier]; dup {
		return fmt.Errorf("accounting: tier %d already has a link", tier)
	}
	m.byIf[ifIndex] = &linkCounter{tier: tier}
	m.byTier[tier] = ifIndex
	return nil
}

// LinkFor returns the interface provisioned for a tier.
func (m *LinkMeter) LinkFor(tier int) (uint16, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ifIndex, ok := m.byTier[tier]
	return ifIndex, ok
}

// Count adds octets to a link's counter (the data path).
func (m *LinkMeter) Count(ifIndex uint16, octets uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byIf[ifIndex]
	if !ok {
		return fmt.Errorf("accounting: unknown interface %d", ifIndex)
	}
	c.octets += octets
	return nil
}

// Poll returns the current counters, sorted by interface (the SNMP
// polling pass of Figure 17a).
func (m *LinkMeter) Poll() []CounterSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CounterSample, 0, len(m.byIf))
	for ifIndex, c := range m.byIf {
		out = append(out, CounterSample{IfIndex: ifIndex, Tier: c.tier, Octets: c.octets})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IfIndex < out[j].IfIndex })
	return out
}

// PerTierOctets folds polled samples into per-tier totals.
func PerTierOctets(samples []CounterSample) map[int]uint64 {
	out := map[int]uint64{}
	for _, s := range samples {
		out[s.Tier] += s.Octets
	}
	return out
}

// FlowAccountant models the flow-based architecture (Figure 17b): NetFlow
// records are de-duplicated, sampling-restored, and joined with the
// tier-tagged RIB to attribute octets to tiers. It counts through the
// pipeline's one collector (stream.NewCollector), bucketing each record
// by its destination's tier. Safe for concurrent ingest.
type FlowAccountant struct {
	flows *stream.Window
}

// unroutedKey buckets the traffic that matches no tier-tagged route; a
// tier's bucket is its index in decimal.
const unroutedKey = "unrouted"

// NewFlowAccountant creates an accountant over the given RIB.
func NewFlowAccountant(rib *bgp.RIB) (*FlowAccountant, error) {
	if rib == nil {
		return nil, errors.New("accounting: nil RIB")
	}
	return &FlowAccountant{flows: stream.NewCollector(tierRule{rib})}, nil
}

// tierRule buckets a record by its destination's RIB tier: code tier+1,
// and 0 for unrouted traffic.
type tierRule struct{ rib *bgp.RIB }

func (t tierRule) Code(r *netflow.Record) (uint64, bool) {
	route, ok := t.rib.Lookup(r.DstAddr)
	if !ok || route.Tier == nil {
		return 0, true
	}
	return uint64(route.Tier.Tier) + 1, true
}

func (tierRule) Name(dst []byte, code uint64) []byte {
	if code == 0 {
		return append(dst, unroutedKey...)
	}
	return strconv.AppendUint(dst, code-1, 10)
}

// Ingest processes one NetFlow export packet.
func (fa *FlowAccountant) Ingest(h netflow.Header, recs []netflow.Record) {
	fa.flows.Ingest(h, recs)
}

// PerTierOctets returns the accumulated per-tier totals.
func (fa *FlowAccountant) PerTierOctets() map[int]uint64 {
	out := map[int]uint64{}
	for _, a := range fa.flows.Aggregates() {
		if tier, err := strconv.Atoi(a.Key); err == nil {
			out[tier] = a.Octets
		}
	}
	return out
}

// Unrouted returns octets that matched no tier-tagged route.
func (fa *FlowAccountant) Unrouted() uint64 {
	for _, a := range fa.flows.Aggregates() {
		if a.Key == unroutedKey {
			return a.Octets
		}
	}
	return 0
}

// Bill prices accumulated traffic: each tier's average Mbps over the
// billing window times its $/Mbps/month rate.
type Bill struct {
	// MbpsPerTier is the average throughput attributed to each tier.
	MbpsPerTier map[int]float64
	// ChargePerTier is MbpsPerTier × the tier's price.
	ChargePerTier map[int]float64
	// Total is the sum of charges in $/month.
	Total float64
}

// ComputeBill converts per-tier octet totals over a window into a bill at
// the given per-tier prices ($/Mbps/month).
func ComputeBill(perTier map[int]uint64, prices []float64, windowSec float64) (Bill, error) {
	if windowSec <= 0 {
		return Bill{}, errors.New("accounting: billing window must be positive")
	}
	b := Bill{MbpsPerTier: map[int]float64{}, ChargePerTier: map[int]float64{}}
	for tier, octets := range perTier {
		if tier < 0 || tier >= len(prices) {
			return Bill{}, fmt.Errorf("accounting: no price for tier %d", tier)
		}
		mbps := netflow.DemandMbps(octets, windowSec)
		b.MbpsPerTier[tier] = mbps
		b.ChargePerTier[tier] = mbps * prices[tier]
		b.Total += mbps * prices[tier]
	}
	return b, nil
}

// Overhead models the paper's accounting-overhead comparison (§5.2): the
// link-based method needs a provisioned link and BGP session per tier,
// while the flow-based method needs fixed collector infrastructure plus
// per-record processing.
type Overhead struct {
	// PerTierLink is the monthly cost of one provisioned link + session.
	PerTierLink float64
	// CollectorFixed is the monthly cost of flow-collection
	// infrastructure.
	CollectorFixed float64
	// PerMillionRecords is the processing cost per million flow records.
	PerMillionRecords float64
}

// LinkBased returns the link-based overhead for the given tier count.
func (o Overhead) LinkBased(tiers int) float64 {
	return float64(tiers) * o.PerTierLink
}

// FlowBased returns the flow-based overhead for the given record volume.
func (o Overhead) FlowBased(records int) float64 {
	return o.CollectorFixed + float64(records)/1e6*o.PerMillionRecords
}

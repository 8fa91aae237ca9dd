package transit

import (
	"io"
	"net/netip"

	"tieredpricing/internal/accounting"
	"tieredpricing/internal/bgp"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/peering"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/traces"
)

// This file exposes the deployment-facing half of the library (the
// paper's §5 and §2.2.2): direct-peering economics, BGP tier tagging, and
// the two tier-accounting architectures.

// Peering economics (§2.2.2, Figure 2).
type (
	// PeeringInputs describe a customer/ISP bypass decision.
	PeeringInputs = peering.Inputs
	// PeeringOutcome classifies it (stay / efficient-bypass /
	// market-failure).
	PeeringOutcome = peering.Outcome
	// PeeringSweepPoint is one point of a c_direct sweep.
	PeeringSweepPoint = peering.SweepPoint
)

// Peering outcome values.
const (
	StayWithISP     = peering.StayWithISP
	EfficientBypass = peering.EfficientBypass
	MarketFailure   = peering.MarketFailure
)

// DecidePeering classifies one bypass decision.
func DecidePeering(in PeeringInputs) (PeeringOutcome, error) { return peering.Decide(in) }

// SweepPeering evaluates the decision across direct-link costs.
func SweepPeering(base PeeringInputs, directCosts []float64) ([]PeeringSweepPoint, error) {
	return peering.Sweep(base, directCosts)
}

// BGP tier association (§5.1).
type (
	// TierCommunity is the extended community tagging a route's tier.
	TierCommunity = bgp.TierCommunity
	// BGPOpen holds a speaker's OPEN parameters.
	BGPOpen = bgp.Open
	// BGPUpdate is a route announcement/withdrawal.
	BGPUpdate = bgp.Update
	// BGPCustomer is a customer session to a Speaker whose RIB holds the
	// speaker's tier-tagged table; Wait blocks until the next push is in.
	BGPCustomer = bgp.Customer
	// RIB is a tier-tagged routing table with longest-prefix matching.
	RIB = bgp.RIB
)

// DialBGP connects a customer to the speaker at addr and returns once
// the speaker's table is in the customer's RIB.
func DialBGP(addr string, local BGPOpen) (*BGPCustomer, error) {
	return bgp.DialCustomer(addr, local)
}

// NewRIB creates an empty routing table.
func NewRIB() *RIB { return bgp.NewRIB() }

// AnnounceTiered groups prefixes by tier into tagged UPDATE messages,
// each small enough to send.
func AnnounceTiered(prefixes []netip.Prefix, nextHop netip.Addr,
	tierOf func(netip.Prefix) int, prices []float64) ([]BGPUpdate, error) {
	return bgp.AnnounceTiered(prefixes, nextHop, tierOf, prices)
}

// Accounting (§5.2).
type (
	// LinkMeter is the link-based (per-tier SNMP counter) architecture.
	LinkMeter = accounting.LinkMeter
	// FlowAccountant is the flow-based (NetFlow + RIB) architecture.
	FlowAccountant = accounting.FlowAccountant
	// Bill prices accounted traffic.
	Bill = accounting.Bill
	// AccountingOverhead compares the two architectures' costs.
	AccountingOverhead = accounting.Overhead
)

// NewLinkMeter creates an empty link meter.
func NewLinkMeter() *LinkMeter { return accounting.NewLinkMeter() }

// PercentileBilling prices interval samples at a percentile (default the
// industry-standard 95th); an extension beyond the paper.
type PercentileBilling = accounting.PercentileBilling

// Speaker is a provider-side BGP speaker that serves multiple customer
// sessions and pushes incremental tier re-pricings (§5.1 at service
// scale).
type Speaker = bgp.Speaker

// NewSpeaker starts a provider speaker listening on addr.
func NewSpeaker(addr string, local BGPOpen, nextHop netip.Addr) (*Speaker, error) {
	return bgp.NewSpeaker(addr, local, nextHop)
}

// NewFlowAccountant creates a flow accountant over a tier-tagged RIB.
func NewFlowAccountant(rib *RIB) (*FlowAccountant, error) {
	return accounting.NewFlowAccountant(rib)
}

// ComputeBill prices per-tier octet totals over a billing window.
func ComputeBill(perTier map[int]uint64, prices []float64, windowSec float64) (Bill, error) {
	return accounting.ComputeBill(perTier, prices, windowSec)
}

// PerTierOctets folds link-meter samples into per-tier totals.
func PerTierOctets(samples []accounting.CounterSample) map[int]uint64 {
	return accounting.PerTierOctets(samples)
}

// NetFlow trace replay.
type (
	// NetFlowHeader and NetFlowRecord are the v5 export structures.
	NetFlowHeader = netflow.Header
	NetFlowRecord = netflow.Record
	// NetFlowReader streams export packets. The records Next returns are
	// valid until the next call, which decodes into the same array.
	NetFlowReader = netflow.Reader
	// Collector de-duplicates and aggregates records into demands: the
	// one-slot, never-ageing form of the online sliding window.
	Collector = stream.Window
	// EmitConfig tunes Dataset.EmitNetFlow.
	EmitConfig = traces.EmitConfig
)

// NewNetFlowReader streams export packets from r. Each Next's records
// are valid until the next call: copy them to keep them.
func NewNetFlowReader(r io.Reader) *NetFlowReader { return netflow.NewReader(r) }

// NewCollector aggregates records by the given bucketing rule; a record
// it names "" is dropped.
func NewCollector(key func(NetFlowRecord) string) *Collector {
	return stream.NewCollector(netflow.StringKey(key))
}

// DatasetAggregateKey is the bucketing rule matching the built-in
// datasets' address plan (source PoP /20 + destination /24). It names ""
// a record whose addresses no v5 datagram carries.
func DatasetAggregateKey(rec NetFlowRecord) string {
	code, ok := traces.AggregateKey.Code(&rec)
	if !ok {
		return ""
	}
	return string(traces.AggregateKey.Name(nil, code))
}

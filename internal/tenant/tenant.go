package tenant

import (
	"fmt"
	"sync/atomic"

	"tieredpricing/internal/netflow"
)

// Tenant is one network's ingest and quota face inside tierd: its quote
// quota and ingest sink. The daemon wires Sink to the tenant's window —
// possibly behind its durability layer — and the Registry routes export
// datagrams into it.
type Tenant struct {
	Spec Spec

	// Limiter guards the tenant's quote path (nil = unlimited).
	Limiter *Bucket
	// Sink receives the tenant's routed export packets.
	Sink netflow.Sink

	// routedPackets counts export datagrams the registry routed here.
	routedPackets atomic.Uint64
}

// ID is the tenant's API and on-disk name.
func (t *Tenant) ID() string { return t.Spec.ID }

// Weight is the tenant's WFQ share (zero-valued specs weigh 1).
func (t *Tenant) Weight() float64 {
	if t.Spec.Weight <= 0 {
		return 1
	}
	return t.Spec.Weight
}

// RoutedPackets reports how many export datagrams routed to the tenant.
func (t *Tenant) RoutedPackets() uint64 { return t.routedPackets.Load() }

// Registry is the tenant table and the ingest router. It implements
// netflow.Sink: an export datagram routes to the tenant owning the
// packet header's engine ID (the exporting router), falling back to the
// default tenant for unmapped engines. Routing is read-only after
// construction, so ingest needs no locking here.
type Registry struct {
	byRouter map[uint8]*Tenant
	def      *Tenant
}

// NewRegistry indexes the tenants. Their specs must pass ValidateSpecs,
// whose default tenant is the one unmapped routers fall back to, and
// every tenant needs a sink.
func NewRegistry(tenants []*Tenant) (*Registry, error) {
	specs := make([]Spec, len(tenants))
	for i, t := range tenants {
		specs[i] = t.Spec
	}
	defaultID, err := ValidateSpecs(specs)
	if err != nil {
		return nil, err
	}
	r := &Registry{byRouter: make(map[uint8]*Tenant)}
	for _, t := range tenants {
		if t.Sink == nil {
			return nil, fmt.Errorf("tenant %q: no ingest sink", t.ID())
		}
		if t.ID() == defaultID {
			r.def = t
		}
		for _, router := range t.Spec.Routers {
			r.byRouter[router] = t
		}
	}
	return r, nil
}

var _ netflow.Sink = (*Registry)(nil)

// Ingest routes one export packet to its tenant by the header's engine
// ID. Unmapped engines go to the default tenant, so a single-router
// deployment needs no router table at all.
func (r *Registry) Ingest(h netflow.Header, recs []netflow.Record) {
	t, ok := r.byRouter[h.EngineID]
	if !ok {
		t = r.def
	}
	t.routedPackets.Add(1)
	t.Sink.Ingest(h, recs)
}

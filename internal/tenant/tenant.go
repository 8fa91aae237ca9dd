package tenant

import (
	"fmt"
	"sync/atomic"

	"tieredpricing/internal/netflow"
)

// Tenant is one network's ingest and quota face inside tierd: its
// sliding window, quote quota and ingest sink. The daemon wires Sink to
// the window — possibly behind the tenant's durability layer — and the
// Registry routes export datagrams into it.
type Tenant struct {
	Spec Spec

	// Window is the tenant's sliding-window accumulator (a
	// *stream.Window, held as its sink face).
	Window netflow.Sink
	// Limiter guards the tenant's quote path (nil = unlimited).
	Limiter *Bucket
	// Sink receives the tenant's routed export packets. It defaults to
	// Window; durable daemons interpose the WAL here.
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

// NewRegistry indexes the tenants. defaultID selects the tenant the
// legacy API paths and unmapped routers fall back to; it must name a
// registered tenant. Every tenant must carry a distinct, valid ID and
// disjoint router sets (ValidateSpecs enforces the same rules on specs
// before runtime construction).
func NewRegistry(tenants []*Tenant, defaultID string) (*Registry, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one tenant")
	}
	r := &Registry{byRouter: make(map[uint8]*Tenant)}
	byID := make(map[string]*Tenant, len(tenants))
	for _, t := range tenants {
		if !validID(t.ID()) {
			return nil, fmt.Errorf("tenant: invalid id %q", t.ID())
		}
		if _, dup := byID[t.ID()]; dup {
			return nil, fmt.Errorf("tenant: duplicate id %q", t.ID())
		}
		if t.Sink == nil {
			t.Sink = t.Window
		}
		if t.Sink == nil {
			return nil, fmt.Errorf("tenant %q: no ingest sink", t.ID())
		}
		byID[t.ID()] = t
		for _, router := range t.Spec.Routers {
			if prev, taken := r.byRouter[router]; taken {
				return nil, fmt.Errorf("tenant %q: router %d already routed to %q", t.ID(), router, prev.ID())
			}
			r.byRouter[router] = t
		}
	}
	def, ok := byID[defaultID]
	if !ok {
		return nil, fmt.Errorf("tenant: default %q is not a registered tenant", defaultID)
	}
	r.def = def
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

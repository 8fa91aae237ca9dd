package faultinject

import (
	"sync/atomic"

	"tieredpricing/internal/netflow"
)

// Sink wraps a netflow.Sink with datagram-level faults, applied after
// decode and before the downstream sees the packet: whole datagrams
// dropped (UDP loss), duplicated (a router re-exporting after a timeout
// — downstream dedup must absorb it), and truncated to a prefix of
// their records (a partial export cut off mid-packet). The downstream
// sink receives exactly the post-fault stream, so a shadow collector
// chained behind the same Sink observes the ground truth of what was
// "successfully ingested" — the reference side of the chaos parity
// check.
type Sink struct {
	// Downstream receives the surviving (possibly truncated, possibly
	// repeated) packets.
	Downstream netflow.Sink
	// DropPermille, DupPermille and TruncPermille are the per-datagram
	// fault probabilities (‰). Truncation keeps a deterministic non-empty
	// prefix of the records; a drop discards the datagram whole.
	DropPermille  uint32
	DupPermille   uint32
	TruncPermille uint32

	in        *Injector
	dropSite  *Site
	dupSite   *Site
	truncSite *Site

	dropped    atomic.Uint64
	duplicated atomic.Uint64
	truncated  atomic.Uint64
}

var _ netflow.Sink = (*Sink)(nil)

// NewSink wraps downstream with faults driven by in.
func NewSink(in *Injector, downstream netflow.Sink) *Sink {
	return &Sink{
		Downstream: downstream,
		in:         in,
		dropSite:   in.NewSite(0xd209),
		dupSite:    in.NewSite(0xd4b1),
		truncSite:  in.NewSite(0x7284c),
	}
}

// Ingest applies the fault schedule to one datagram and forwards what
// survives (netflow.Sink).
func (s *Sink) Ingest(h netflow.Header, recs []netflow.Record) {
	if s.dropSite.Hit(s.in, s.DropPermille) {
		s.dropped.Add(1)
		return
	}
	if s.truncSite.Hit(s.in, s.TruncPermille) && len(recs) > 1 {
		// Keep a seed-determined non-empty prefix: the cut point reuses
		// the site's decision stream so it replays with the schedule.
		keep := 1 + int(splitmix64(s.in.seed^s.truncSite.Calls())%uint64(len(recs)-1))
		recs = recs[:keep]
		s.truncated.Add(1)
	}
	s.Downstream.Ingest(h, recs)
	if s.dupSite.Hit(s.in, s.DupPermille) {
		s.duplicated.Add(1)
		s.Downstream.Ingest(h, recs)
	}
}

// Stats reports how many datagrams were dropped, duplicated, and
// truncated so far.
func (s *Sink) Stats() (dropped, duplicated, truncated uint64) {
	return s.dropped.Load(), s.duplicated.Load(), s.truncated.Load()
}

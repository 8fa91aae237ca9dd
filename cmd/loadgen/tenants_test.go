package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"tieredpricing/internal/bundling"
	"tieredpricing/internal/cost"
	"tieredpricing/internal/demandfit"
	"tieredpricing/internal/econ"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
	"tieredpricing/internal/traces"
)

func TestParseTenants(t *testing.T) {
	mix, err := ParseTenants("net-a=1, net-b=2,net-c=255")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantMix{{ID: "net-a", Engine: 1}, {ID: "net-b", Engine: 2}, {ID: "net-c", Engine: 255}}
	if len(mix) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i].ID != want[i].ID || mix[i].Engine != want[i].Engine {
			t.Errorf("tenant %d: %+v, want %+v", i, mix[i], want[i])
		}
	}

	for _, bad := range []string{
		"",                // no id=engine at all
		"net-a",           // missing engine
		"=1",              // empty id
		"net-a=256",       // engine out of uint8 range
		"net-a=x",         // non-numeric engine
		"net-a=1,net-a=2", // duplicate id
		"net-a=1,net-b=1", // duplicate engine
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestPartitionStream(t *testing.T) {
	// Two packets (makeStream flushes all four records into one export
	// per 30-record page; force two packets by concatenating the stream
	// with itself).
	one := makeStream(t)
	twoPackets := append(append([]byte{}, one...), one...)

	tenants := []TenantMix{{ID: "net-a", Engine: 7}, {ID: "net-b", Engine: 9}}
	datagrams, mix, err := PartitionStream(bytes.NewReader(twoPackets), tenants)
	if err != nil {
		t.Fatal(err)
	}
	if len(datagrams) != 2 {
		t.Fatalf("%d datagrams, want 2", len(datagrams))
	}
	// The deal is round-robin and the engine stamp must match the owner.
	for i, d := range datagrams {
		h, _, err := netflow.DecodePacket(d)
		if err != nil {
			t.Fatalf("datagram %d does not decode: %v", i, err)
		}
		if want := tenants[i%2].Engine; h.EngineID != want {
			t.Errorf("datagram %d: engine %d, want %d", i, h.EngineID, want)
		}
	}
	// Identical packets dealt to both tenants: each owns the same pairs.
	for i, tn := range mix {
		if len(tn.Pairs) != 3 {
			t.Errorf("tenant %s: %d pairs, want 3 (deduplicated)", tn.ID, len(tn.Pairs))
		}
		if tn.ID != tenants[i].ID || tn.Engine != tenants[i].Engine {
			t.Errorf("mix %d: %+v does not preserve %+v", i, tn, tenants[i])
		}
	}
	// The input slice must not be mutated (Pairs filled on the copy).
	if tenants[0].Pairs != nil {
		t.Error("PartitionStream mutated its input")
	}

	// One packet across two tenants starves the second.
	if _, _, err := PartitionStream(bytes.NewReader(one), tenants); err == nil {
		t.Error("starved tenant accepted")
	}
	if _, _, err := PartitionStream(bytes.NewReader(nil), tenants); err == nil {
		t.Error("empty stream accepted")
	}
	if _, _, err := PartitionStream(bytes.NewReader(one), nil); err == nil {
		t.Error("no tenants accepted")
	}
}

// TestLoadgenFleetEndToEnd drives a two-tenant in-process fleet (two
// window→repricer engines behind a tenant registry and one UDP
// collector, the same chain cmd/tierd's fleet mode wires) and checks
// the report's per-tenant rows: they partition the run, carry populated
// monotone latency, and round-trip through the schema validator.
func TestLoadgenFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load test")
	}
	ds, err := traces.EUISP(91)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := ds.EmitNetFlow(traces.EmitConfig{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	mixIn := []TenantMix{{ID: "net-a", Engine: 1}, {ID: "net-b", Engine: 2}}
	datagrams, mix, err := PartitionStream(bytes.NewReader(concatStreams(t, streams)), mixIn)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		tenants    []*tenant.Tenant
		srvTenants []*server.Tenant
	)
	for _, tm := range mix {
		w, err := stream.NewWindow(traces.AggregateKey, time.Hour, 4)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := stream.NewRepricer(stream.Config{
			Window:      w,
			Resolver:    &demandfit.Resolver{Geo: ds.Geo, DistanceRegions: true},
			Demand:      econ.CED{Alpha: 1.1},
			Cost:        cost.Linear{Theta: 0.2},
			P0:          ds.P0,
			Strategy:    bundling.ProfitWeighted{},
			Tiers:       3,
			DurationSec: ds.DurationSec,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			repriceEvery(ctx, rp, 250*time.Millisecond)
		}()
		t.Cleanup(func() { cancel(); <-done })
		tenants = append(tenants, &tenant.Tenant{
			Spec:   tenant.Spec{ID: tm.ID, Routers: []uint8{tm.Engine}},
			Window: w,
		})
		srvTenants = append(srvTenants, &server.Tenant{ID: tm.ID, Snapshots: rp})
	}
	reg, err := tenant.NewRegistry(tenants, mix[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	collector, err := netflow.NewCollectorServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	srv, err := server.New(server.Config{Tenants: srvTenants, DefaultTenant: mix[0].ID})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const targetQPS = 150.0
	rep, err := Run(ctx, Options{
		Target:        ts.URL,
		Datagrams:     datagrams,
		QPS:           targetQPS,
		Duration:      2 * time.Second,
		Workers:       8,
		NetflowAddr:   collector.Addr(),
		NetflowPPS:    100,
		Warmup:        true,
		WarmupTimeout: 60 * time.Second,
		Tenants:       mix,
		Seed:          5,
		Profile:       "fleet-e2e",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Validate() checks the fleet invariants (rows partition the run,
	// per-tenant quantiles monotone); re-run it explicitly so a schema
	// regression fails here, not only at ReadFile time.
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("%d tenant rows, want 2", len(rep.Tenants))
	}
	if rep.Errors != 0 {
		t.Errorf("error rate %.4f (%d errors, %d misses) on a healthy fleet",
			rep.ErrorRate, rep.Errors, rep.Misses)
	}
	for i, row := range rep.Tenants {
		if row.ID != mix[i].ID {
			t.Errorf("row %d: id %q, want %q (mix order preserved)", i, row.ID, mix[i].ID)
		}
		if row.Requests == 0 {
			t.Errorf("tenant %s: no requests in a 2s interleaved mix", row.ID)
		}
		if row.Errors != 0 {
			t.Errorf("tenant %s: %d errors", row.ID, row.Errors)
		}
		if row.Requests > 0 && row.Latency.P50Ns <= 0 {
			t.Errorf("tenant %s: latency not recorded", row.ID)
		}
	}
}

package server

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tieredpricing/internal/buildinfo"
	"tieredpricing/internal/histstore"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
	"tieredpricing/internal/wal"
)

// expositionConfig wires every /metrics source — ingest, durability,
// history store, reload, scheduler and a live snapshot — onto the given
// tenant IDs with fixed values and a fixed clock, so the rendered
// exposition is deterministic.
func expositionConfig(snap *stream.Snapshot, ids ...string) Config {
	ingest := func() IngestStats {
		return IngestStats{Packets: 5, BadPackets: 1, Records: 60, Duplicates: 30, Dropped: 2,
			SocketDrops: 3}
	}
	cfg := Config{
		Ingest: ingest,
		Now:    func() time.Time { return snap.FittedAt.Add(5 * time.Second) },
		HistoryStore: func() histstore.Stats {
			return histstore.Stats{Entries: 9, Bytes: 900, Appends: 11, Dupes: 2, AppendErrors: 1,
				Flushes: 3, Compactions: 1, Pruned: 2, Scans: 4, OpenTornBytes: 5}
		},
		Reload: func() ReloadStats { return ReloadStats{ConfigEpoch: 3, Reloads: 2, ReloadErrors: 1} },
		Build:  buildinfo.Info{Revision: "deadbeef", GoVersion: "go1.22"},
	}
	var flows []tenant.FlowStats
	for _, id := range ids {
		m := NewMetrics()
		m.QuoteRequests.Add(7)
		m.QuoteMisses.Add(2)
		m.TiersRequests.Add(3)
		m.HistoryRequests.Add(1)
		m.QuoteStale.Add(1)
		m.QuoteSeconds.Observe(0.0002)
		m.QuoteSeconds.Observe(0.02)
		m.ObserveReprice(0.02, false)
		m.ObserveReprice(0.5, true)
		m.ObserveSnapshot(&stream.Snapshot{RepriceTrace: stream.RepriceTrace{Stages: stream.StageTimes{stream.StageFit: time.Millisecond}}})
		m.RepriceFlows.Set(2)
		m.ConsecutiveFailures.Set(1)
		cfg.Tenants = append(cfg.Tenants, &Tenant{
			ID: id, Snapshots: &fakeSource{snap: snap}, Metrics: m, Ingest: ingest,
			MaxSnapshotAge: 30 * time.Second, Weight: 1,
			Durability: func() DurabilityStats {
				return DurabilityStats{WAL: wal.Stats{Bytes: 4096, Entries: 12, Fsyncs: 4, FsyncP50Ns: 1e6,
					FsyncP99Ns: 4e6, FsyncMaxNs: 5e6, FsyncSumNs: 9e6}, Checkpoints: 2,
					CheckpointAge: 1.5, RecoveryReplayed: 7, RecoveryReplaySeconds: 0.25, RecoveryTornBytes: 13, Errors: 6}
			},
		})
		flows = append(flows, tenant.FlowStats{ID: id, Dispatched: 3, LastWait: 250 * time.Millisecond, CostSeconds: 0.01})
	}
	cfg.Sched = func() (tenant.Stats, []tenant.FlowStats) { return tenant.Stats{QueueDepth: 1, Dispatched: 6}, flows }
	return cfg
}

// processWide are the families that describe the process, not a
// tenant: they stay unlabeled in a fleet.
var processWide = map[string]bool{
	"tierd_health_requests_total": true, "tierd_metrics_requests_total": true, "tierd_build_info": true,
	"tierd_ingest_packets_total": true, "tierd_ingest_bad_packets_total": true, "tierd_ingest_socket_drops_total": true,
	"tierd_sched_queue_depth": true, "tierd_sched_dispatched_total": true,
	"tierd_sched_coalesced_total": true, "tierd_sched_starved_total": true,
	"tierd_config_epoch": true, "tierd_config_reloads_total": true, "tierd_config_reload_errors_total": true,
}

// TestExpositionSoleVsFleet pins the one /metrics writer against both
// shapes it serves. A synthesised sole tenant must emit, unlabeled,
// every sample the pre-merge single-tenant writer emitted for the same
// fixture (testdata/sole_samples.golden: that writer's sample lines,
// sorted); a two-tenant fleet must label every per-tenant sample; both
// carry exactly one HELP/TYPE pair per family.
func TestExpositionSoleVsFleet(t *testing.T) {
	snap := makeSnapshot(t)
	golden, err := os.ReadFile("testdata/sole_samples.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sole bool
		ids  []string
	}{
		{"sole", true, []string{"default"}},
		{"fleet", false, []string{"alpha", "beta"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := expositionConfig(snap, tc.ids...)
			cfg.Sole = tc.sole
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

			samples := map[string]bool{}
			help, typ := map[string]int{}, map[string]int{}
			var families []string
			for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
				switch f := strings.Fields(line); {
				case strings.HasPrefix(line, "# HELP "):
					help[f[2]]++
					families = append(families, f[2])
				case strings.HasPrefix(line, "# TYPE "):
					typ[f[2]]++
				default:
					samples[line] = true
				}
			}
			for _, f := range families {
				if help[f] != 1 || typ[f] != 1 {
					t.Errorf("family %s has %d HELP and %d TYPE lines, want one of each", f, help[f], typ[f])
				}
			}
			// familyOf maps a sample line to the family whose header covers it.
			familyOf := func(line string) string {
				name := line[:strings.IndexAny(line, "{ ")]
				for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
					if base := strings.TrimSuffix(name, suffix); help[base] == 1 {
						return base
					}
				}
				t.Errorf("sample %q has no HELP/TYPE header", line)
				return ""
			}
			perTenant := map[string]int{} // family → labeled sample count per tenant ID
			for line := range samples {
				f := familyOf(line)
				if tc.sole {
					if strings.Contains(line, "tenant=") {
						t.Errorf("sole tenant sample carries a tenant label: %q", line)
					}
					continue
				}
				if f == "" || processWide[f] || (strings.HasPrefix(f, "tierd_history_") && f != "tierd_history_requests_total") {
					continue
				}
				labeled := false
				for _, id := range tc.ids {
					if strings.Contains(line, `{tenant="`+id+`"`) {
						labeled = true
						perTenant[f+" "+id]++
					}
				}
				if !labeled {
					t.Errorf("per-tenant sample without a tenant label: %q", line)
				}
			}
			if tc.sole {
				for _, want := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
					if !samples[want] {
						t.Errorf("sole exposition lost the single-tenant sample %q", want)
					}
				}
				return
			}
			for key, n := range perTenant {
				f, _, _ := strings.Cut(key, " ")
				if other := perTenant[f+" "+tc.ids[0]]; n != other {
					t.Errorf("family %s: %d samples for one tenant, %d for %s", f, n, other, tc.ids[0])
				}
			}
			if len(perTenant) == 0 {
				t.Error("fleet exposition has no labeled samples")
			}
		})
	}
}

package tenant

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tieredpricing/internal/netflow"
)

func TestValidateSpecs(t *testing.T) {
	cases := []struct {
		name    string
		specs   []Spec
		wantDef string
		wantErr bool
	}{
		{"empty", nil, "", true},
		{"single", []Spec{{ID: "a"}}, "a", false},
		{"explicit default", []Spec{{ID: "a"}, {ID: "b", Default: true}}, "b", false},
		{"first is default", []Spec{{ID: "x"}, {ID: "y"}}, "x", false},
		{"two defaults", []Spec{{ID: "a", Default: true}, {ID: "b", Default: true}}, "", true},
		{"dup id", []Spec{{ID: "a"}, {ID: "a"}}, "", true},
		{"bad id chars", []Spec{{ID: "A/B"}}, "", true},
		{"dotdot id", []Spec{{ID: ".."}}, "", true},
		{"empty id", []Spec{{ID: ""}}, "", true},
		{"dup router", []Spec{{ID: "a", Routers: []uint8{1}}, {ID: "b", Routers: []uint8{1}}}, "", true},
		{"negative weight", []Spec{{ID: "a", Weight: -1}}, "", true},
		{"negative rate", []Spec{{ID: "a", RateQPS: -5}}, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			def, err := ValidateSpecs(tc.specs)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if !tc.wantErr && def != tc.wantDef {
				t.Fatalf("default = %q, want %q", def, tc.wantDef)
			}
		})
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	body := `{"tenants": [
		{"id": "alpha", "trace": "/tmp/a", "weight": 2, "rate_qps": 100, "routers": [1, 2]},
		{"id": "beta", "trace": "/tmp/b", "default": true, "tiers": 4}
	]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, def, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || def != "beta" {
		t.Fatalf("got %d specs, default %q", len(specs), def)
	}
	if specs[0].Weight != 2 || specs[0].RateQPS != 100 || len(specs[0].Routers) != 2 {
		t.Fatalf("alpha spec mangled: %+v", specs[0])
	}
	if specs[1].Tiers != 4 {
		t.Fatalf("beta spec mangled: %+v", specs[1])
	}

	if _, _, err := LoadSpecFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	for _, tc := range []struct{ name, body string }{
		{"invalid id", `{"tenants": [{"id": "Ümlaut"}]}`},
		{"misspelt key", `{"tenants": [{"id": "a", "rate_qsp": 50}]}`},
		{"trailing data", `{"tenants": [{"id": "a"}]} {"tenants": []}`},
	} {
		if err := os.WriteFile(bad, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadSpecFile(bad); err == nil {
			t.Errorf("%s should error", tc.name)
		}
	}
}

// fakeClock is a manual time source shared by a test and the code under
// test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBucket(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(10, 3, clk.Now) // 10 qps, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := b.Allow()
	if ok {
		t.Fatal("drained bucket admitted a request")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry-after %v, want (0, 100ms] at 10 qps", retry)
	}
	if b.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", b.Denied())
	}

	clk.Advance(100 * time.Millisecond) // one token accrues
	if ok, _ := b.Allow(); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second request should be denied; only one token accrued")
	}

	clk.Advance(time.Hour) // refills to burst, not beyond
	for i := 0; i < 3; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("post-refill request %d denied; burst cap broken", i)
		}
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("bucket exceeded burst capacity")
	}

	var nilBucket *Bucket
	if ok, _ := nilBucket.Allow(); !ok {
		t.Fatal("nil bucket must admit everything")
	}
	if NewBucket(0, 5, nil) != nil {
		t.Fatal("rate 0 must build a nil (unlimited) bucket")
	}
}

// runScheduler starts Run in the background and returns a stop that
// cancels and waits for it.
func runScheduler(s *Scheduler) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

func TestSchedulerCoalescing(t *testing.T) {
	s := NewScheduler(1, 0, nil)
	// No workers running: submissions queue up.
	if !s.Submit("a", 1, func(context.Context) {}) {
		t.Fatal("first submit rejected")
	}
	if s.Submit("a", 1, func(context.Context) {}) {
		t.Fatal("second submit for the same tenant must coalesce")
	}
	if !s.Submit("b", 1, func(context.Context) {}) {
		t.Fatal("other tenant's submit rejected")
	}
	st := s.Stats()
	if st.Coalesced != 1 || st.QueueDepth != 2 {
		t.Fatalf("stats = %+v, want coalesced 1, depth 2", st)
	}
}

func TestSchedulerWeightOrdering(t *testing.T) {
	s := NewScheduler(1, 0, nil)

	// Hold the single worker on a blocker job so subsequent submissions
	// are ordered by the scheduler, not by submission race.
	blockerRunning := make(chan struct{})
	release := make(chan struct{})
	s.Submit("blocker", 1, func(context.Context) {
		close(blockerRunning)
		<-release
	})

	stop := runScheduler(s)
	defer stop()
	<-blockerRunning

	var mu sync.Mutex
	var order []string
	done := make(chan struct{}, 2)
	record := func(id string) func(context.Context) {
		return func(context.Context) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			done <- struct{}{}
		}
	}
	// Equal smoothed costs; "light" submitted first but "heavy" carries
	// 10× the weight, so its finish tag is smaller and it runs first.
	s.Submit("light", 1, record("light"))
	s.Submit("heavy", 10, record("heavy"))
	close(release)
	<-done
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "heavy" || order[1] != "light" {
		t.Fatalf("dispatch order = %v, want [heavy light]", order)
	}
}

func TestSchedulerCostFeedbackAndStarvationBound(t *testing.T) {
	clk := newFakeClock()
	s := NewScheduler(1, time.Second, clk.Now)

	blockerRunning := make(chan struct{})
	release := make(chan struct{})
	s.Submit("blocker", 1, func(context.Context) {
		close(blockerRunning)
		<-release
	})
	stop := runScheduler(s)
	defer stop()
	<-blockerRunning

	// Teach the scheduler that "pig" is expensive: run one job that
	// advances the fake clock by 10s of "work".
	pigDone := make(chan struct{})
	s.Submit("pig", 1, func(context.Context) { clk.Advance(10 * time.Second); close(pigDone) })
	rel := release
	close(rel)
	<-pigDone

	// Re-block the worker through a fresh blocker.
	blockerRunning2 := make(chan struct{})
	release2 := make(chan struct{})
	s.Submit("blocker", 1, func(context.Context) {
		close(blockerRunning2)
		<-release2
	})
	<-blockerRunning2

	var mu sync.Mutex
	var order []string
	done := make(chan struct{}, 2)
	record := func(id string) func(context.Context) {
		return func(context.Context) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			done <- struct{}{}
		}
	}

	// pig queued first, but its smoothed 5s cost gives it a far finish
	// tag; mouse (fresh tenant, minimum cost) must be dispatched first.
	s.Submit("pig", 1, record("pig"))
	s.Submit("mouse", 1, record("mouse"))
	close(release2)
	<-done
	<-done
	mu.Lock()
	if len(order) != 2 || order[0] != "mouse" {
		mu.Unlock()
		t.Fatalf("dispatch order = %v, want mouse before pig (cost feedback)", order)
	}
	order = nil
	mu.Unlock()

	// Starvation bound: same shape, but pig's queue wait exceeds the 1s
	// bound before the worker frees up — the aged job jumps the queue.
	blockerRunning3 := make(chan struct{})
	release3 := make(chan struct{})
	s.Submit("blocker", 1, func(context.Context) {
		close(blockerRunning3)
		<-release3
	})
	<-blockerRunning3
	s.Submit("pig", 1, record("pig"))
	clk.Advance(2 * time.Second) // pig has now waited past the bound
	s.Submit("mouse", 1, record("mouse"))
	close(release3)
	<-done
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "pig" {
		t.Fatalf("dispatch order = %v, want starved pig first", order)
	}
	if s.Stats().Starved == 0 {
		t.Fatal("starvation override not counted")
	}
	fs := s.FlowStats()
	var sawPig bool
	for _, f := range fs {
		if f.ID == "pig" {
			sawPig = true
			if f.Starved == 0 || f.Dispatched < 2 {
				t.Fatalf("pig flow stats = %+v", f)
			}
		}
	}
	if !sawPig {
		t.Fatal("FlowStats missing pig")
	}
}

// countSink records ingested packets per instance.
type countSink struct {
	mu      sync.Mutex
	packets int
}

func (s *countSink) Ingest(h netflow.Header, recs []netflow.Record) {
	s.mu.Lock()
	s.packets++
	s.mu.Unlock()
}

func (s *countSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.packets
}

func TestRegistryRouting(t *testing.T) {
	sinkA, sinkB := &countSink{}, &countSink{}
	a := &Tenant{Spec: Spec{ID: "a", Routers: []uint8{1, 2}}, Sink: sinkA}
	b := &Tenant{Spec: Spec{ID: "b", Routers: []uint8{7}}, Sink: sinkB}
	r, err := NewRegistry([]*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}

	ingest := func(engine uint8) {
		r.Ingest(netflow.Header{EngineID: engine, Count: 1}, []netflow.Record{{}})
	}
	ingest(1)
	ingest(2)
	ingest(7)
	ingest(99) // unmapped → default (a, the first)

	if got := sinkA.count(); got != 3 {
		t.Fatalf("tenant a saw %d packets, want 3 (routers 1,2 + unmapped fallback)", got)
	}
	if got := sinkB.count(); got != 1 {
		t.Fatalf("tenant b saw %d packets, want 1", got)
	}
	if a.RoutedPackets() != 3 || b.RoutedPackets() != 1 {
		t.Fatalf("routed counters = %d/%d, want 3/1", a.RoutedPackets(), b.RoutedPackets())
	}

	// An explicit default takes the unmapped routers.
	c := &Tenant{Spec: Spec{ID: "c", Default: true}, Sink: &countSink{}}
	r, err = NewRegistry([]*Tenant{a, c})
	if err != nil {
		t.Fatal(err)
	}
	r.Ingest(netflow.Header{EngineID: 99, Count: 1}, []netflow.Record{{}})
	if c.RoutedPackets() != 1 || a.RoutedPackets() != 3 {
		t.Fatalf("unmapped router went to a (%d) / c (%d), want c", a.RoutedPackets(), c.RoutedPackets())
	}

	// Construction errors: ValidateSpecs' rules, and a tenant needs a sink.
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("empty registry must error")
	}
	dupRouter := &Tenant{Spec: Spec{ID: "d", Routers: []uint8{1}}, Sink: &countSink{}}
	if _, err := NewRegistry([]*Tenant{a, dupRouter}); err == nil {
		t.Fatal("duplicate router must error")
	}
	if _, err := NewRegistry([]*Tenant{a, {Spec: Spec{ID: "a"}, Sink: &countSink{}}}); err == nil {
		t.Fatal("duplicate id must error")
	}
	if _, err := NewRegistry([]*Tenant{a, {Spec: Spec{ID: "e"}}}); err == nil {
		t.Fatal("tenant without a sink must error")
	}
}

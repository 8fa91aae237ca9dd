package tenant

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Scheduler is a weighted-fair queue over per-tenant re-price jobs,
// executed by a bounded worker pool. Start-time fair queueing: each
// tenant's next job is tagged with a virtual finish time
//
//	F = max(V, F_prev) + cost/weight
//
// where V is the scheduler's virtual clock (advanced to the start tag
// of each dispatched job), cost is the tenant's smoothed measured
// re-price duration and weight its configured share. Workers always run
// the pending job with the smallest finish tag, so over any contended
// interval each tenant receives service proportional to its weight and
// a heavy tenant's long re-fits cannot monopolize the pool.
//
// Two guards make the fairness robust in practice:
//
//   - Coalescing: at most one job per tenant is ever queued. A tenant
//     whose re-price is slower than the tick interval accumulates no
//     backlog — re-submissions while one is pending are dropped and
//     counted, bounding queue depth at the tenant count.
//   - Starvation bound: a job that has waited longer than the
//     configured bound is dispatched next regardless of its tag, so
//     even a zero-ish weight or a pathological cost estimate cannot
//     delay a tenant indefinitely.
type Scheduler struct {
	workers     int
	starveAfter time.Duration
	now         func() time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*schedEntry
	vtime   float64
	flows   map[string]*flowState
	stopped bool

	dispatched uint64
	coalesced  uint64
	starved    uint64
}

// schedEntry is one queued job.
type schedEntry struct {
	id            string
	start, finish float64 // virtual tags
	enq           time.Time
	run           func(context.Context)
}

// flowState is one tenant's WFQ bookkeeping.
type flowState struct {
	weight     float64
	lastFinish float64
	cost       float64 // smoothed measured run seconds
	pending    bool
	dispatched uint64
	coalesced  uint64
	starved    uint64
	lastWait   time.Duration
}

// minCost floors the cost estimate so a zero-duration measurement can
// never collapse finish tags into ties that starve slower tenants.
const minCost = 1e-4

// NewScheduler builds a scheduler with `workers` concurrent slots.
// starveAfter bounds how long any queued job can wait before it is
// dispatched out of order (<= 0 disables the override — pure WFQ).
func NewScheduler(workers int, starveAfter time.Duration, now func() time.Time) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if now == nil {
		now = time.Now
	}
	s := &Scheduler{
		workers:     workers,
		starveAfter: starveAfter,
		now:         now,
		flows:       make(map[string]*flowState),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Submit queues one job for tenant id at the given weight (0 means 1).
// It reports false when a job for the tenant is already queued (the
// submission is coalesced, not an error). Safe to call from any
// goroutine, including while Run is dispatching.
func (s *Scheduler) Submit(id string, weight float64, run func(context.Context)) bool {
	if weight <= 0 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return false
	}
	st, ok := s.flows[id]
	if !ok {
		st = &flowState{cost: minCost}
		s.flows[id] = st
	}
	st.weight = weight
	if st.pending {
		st.coalesced++
		s.coalesced++
		return false
	}
	st.pending = true
	start := s.vtime
	if st.lastFinish > start {
		start = st.lastFinish
	}
	cost := st.cost
	if cost < minCost {
		cost = minCost
	}
	e := &schedEntry{
		id:     id,
		start:  start,
		finish: start + cost/weight,
		enq:    s.now(),
		run:    run,
	}
	st.lastFinish = e.finish
	s.queue = append(s.queue, e)
	s.cond.Signal()
	return true
}

// pickLocked removes and returns the next job: the smallest finish tag,
// unless the oldest queued job has outwaited the starvation bound.
// Queue order is submit order, so queue[0] is always the oldest.
func (s *Scheduler) pickLocked() *schedEntry {
	best := 0
	for i, e := range s.queue {
		if e.finish < s.queue[best].finish {
			best = i
		}
	}
	if s.starveAfter > 0 && best != 0 && s.now().Sub(s.queue[0].enq) > s.starveAfter {
		best = 0
		s.starved++
		s.flows[s.queue[0].id].starved++
	}
	e := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return e
}

// Run executes queued jobs on the worker pool until ctx is cancelled,
// then returns once in-flight jobs finish. Jobs still queued at
// cancellation are dropped — shutdown drains explicitly through the
// caller's own final re-price pass, not through the queue.
func (s *Scheduler) Run(ctx context.Context) {
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-stopWatch:
		}
		s.mu.Lock()
		s.stopped = true
		s.queue = nil
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	var wg sync.WaitGroup
	for range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(ctx)
		}()
	}
	wg.Wait()
	close(stopWatch)
}

func (s *Scheduler) worker(ctx context.Context) {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		e := s.pickLocked()
		st := s.flows[e.id]
		st.pending = false
		st.dispatched++
		st.lastWait = s.now().Sub(e.enq)
		s.dispatched++
		if e.start > s.vtime {
			s.vtime = e.start
		}
		s.mu.Unlock()

		began := s.now()
		e.run(ctx)
		ran := s.now().Sub(began)

		s.mu.Lock()
		// EWMA so one outlier re-fit doesn't permanently distort the
		// tenant's share; the floor keeps tags strictly advancing.
		st.cost = 0.5*st.cost + 0.5*ran.Seconds()
		if st.cost < minCost {
			st.cost = minCost
		}
		s.mu.Unlock()
	}
}

// Stats is the scheduler-wide telemetry snapshot.
type Stats struct {
	Dispatched uint64
	Coalesced  uint64
	Starved    uint64
	QueueDepth int
}

// Stats reports scheduler-wide counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dispatched: s.dispatched,
		Coalesced:  s.coalesced,
		Starved:    s.starved,
		QueueDepth: len(s.queue),
	}
}

// FlowStats is one tenant's scheduling telemetry.
type FlowStats struct {
	ID          string
	Weight      float64
	Dispatched  uint64
	Coalesced   uint64
	Starved     uint64
	LastWait    time.Duration
	CostSeconds float64 // smoothed cost estimate driving the tags
}

// FlowStats reports per-tenant scheduling telemetry, sorted by ID.
func (s *Scheduler) FlowStats() []FlowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FlowStats, 0, len(s.flows))
	for id, st := range s.flows {
		out = append(out, FlowStats{
			ID:          id,
			Weight:      st.weight,
			Dispatched:  st.dispatched,
			Coalesced:   st.coalesced,
			Starved:     st.starved,
			LastWait:    st.lastWait,
			CostSeconds: st.cost,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Zero-downtime pricing-config hot reload (-config + SIGHUP): the
// daemon re-reads the config file, validates the resulting engine
// configuration(s) against the live window, and atomically swaps the
// repricer's pricing parameters. The serving snapshot keeps quoting
// throughout — the new configuration takes effect at the next
// re-price — so quoting never returns a non-200 across a reload. Each
// successful reload bumps the process-wide config epoch, which stamps
// every subsequently published history entry and checkpoint.
package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tieredpricing/internal/server"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/tenant"
)

// reloadState is the process-wide hot-reload bookkeeping: the config
// epoch (generation 1 is the boot config; restore fast-forwards past
// generations older checkpoints recorded) and the reload outcome
// counters for /metrics.
type reloadState struct {
	mu       sync.Mutex // serializes reloads
	cfgEpoch atomic.Int64
	reloads  atomic.Uint64
	errors   atomic.Uint64
}

func newReloadState() *reloadState {
	rs := &reloadState{}
	rs.cfgEpoch.Store(1)
	return rs
}

// epoch reads the current config generation (the recorder stamp).
func (rs *reloadState) epoch() int64 { return rs.cfgEpoch.Load() }

// raise fast-forwards the epoch to at least e (checkpoint restore).
func (rs *reloadState) raise(e int64) {
	for {
		cur := rs.cfgEpoch.Load()
		if e <= cur || rs.cfgEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

func (rs *reloadState) stats() server.ReloadStats {
	return server.ReloadStats{
		ConfigEpoch:  rs.cfgEpoch.Load(),
		Reloads:      rs.reloads.Load(),
		ReloadErrors: rs.errors.Load(),
	}
}

// reloadConfig performs one hot reload: re-read the -config file onto
// the defaults (tenant.LoadPricingFile: present keys override,
// tenant-spec overrides still win on top), validate every member's new
// configuration, swap them in, and bump the config epoch. Any failure leaves every member on its current
// configuration (all are validated before any is touched) and counts a
// reload error; the daemon keeps serving either way.
func (d *daemon) reloadConfig() error {
	rs := d.reload
	rs.mu.Lock()
	defer rs.mu.Unlock()
	fail := func(err error) error {
		rs.errors.Add(1)
		fmt.Fprintln(os.Stderr, "tierd: config reload:", err)
		return err
	}
	base, err := tenant.LoadPricingFile(d.cfg.configFile, tenant.DefaultPricing)
	if err != nil {
		return fail(err)
	}
	// All-or-nothing across the fleet: a bad overlay for any tenant
	// rejects the reload for all of them, so tenants never serve mixed
	// config generations.
	next := make([]stream.Config, len(d.members))
	for i, m := range d.members {
		c, err := m.pricingConfig(m.spec.Pricing.Over(base))
		if err == nil {
			err = m.repricer.CheckConfig(c)
		}
		if err != nil {
			return fail(fmt.Errorf("tenant %s: %w", m.spec.ID, err))
		}
		next[i] = c
	}
	for i, m := range d.members {
		if err := m.repricer.Reconfigure(next[i]); err != nil {
			// CheckConfig passed on identical inputs; reaching here is a bug,
			// but count and report it rather than hide it.
			return fail(fmt.Errorf("tenant %s: %w", m.spec.ID, err))
		}
	}
	epoch := rs.cfgEpoch.Add(1)
	rs.reloads.Add(1)
	fmt.Fprintf(os.Stderr, "tierd: config reloaded from %s (config epoch %d)\n", d.cfg.configFile, epoch)
	return nil
}

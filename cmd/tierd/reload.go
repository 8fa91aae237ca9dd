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
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"tieredpricing/internal/server"
)

// fileConfig is the hot-reloadable pricing configuration: a JSON
// object whose present fields override the corresponding flags
// (tenant-spec overrides still win on top — the overlay order is
// flags < config file < tenant spec). Pointer fields
// distinguish "absent, inherit the flag" from an explicit zero, and
// unknown keys are rejected so a typo cannot reload as a silent no-op.
type fileConfig struct {
	Model     *string  `json:"model,omitempty"`
	Alpha     *float64 `json:"alpha,omitempty"`
	S0        *float64 `json:"s0,omitempty"`
	Theta     *float64 `json:"theta,omitempty"`
	Strategy  *string  `json:"strategy,omitempty"`
	Tiers     *int     `json:"tiers,omitempty"`
	Blended   *float64 `json:"blended,omitempty"`
	DemandSec *float64 `json:"demand_sec,omitempty"`
}

// loadFileConfig reads and strictly parses a -config file.
func loadFileConfig(path string) (*fileConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("parsing %s: trailing data after the config object", path)
	}
	return &fc, nil
}

// applyFileConfig overlays a config file's present fields on an
// engine spec.
func applyFileConfig(es engineSpec, fc *fileConfig) engineSpec {
	if fc == nil {
		return es
	}
	if fc.Model != nil {
		es.model = *fc.Model
	}
	if fc.Alpha != nil {
		es.alpha = *fc.Alpha
	}
	if fc.S0 != nil {
		es.s0 = *fc.S0
	}
	if fc.Theta != nil {
		es.theta = *fc.Theta
	}
	if fc.Strategy != nil {
		es.strategy = *fc.Strategy
	}
	if fc.Tiers != nil {
		es.tiers = *fc.Tiers
	}
	if fc.Blended != nil {
		es.blended = *fc.Blended
	}
	if fc.DemandSec != nil {
		es.demandSec = *fc.DemandSec
	}
	return es
}

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

// reloadConfig performs one hot reload: re-read the -config file,
// validate every member's new configuration, swap them in, and bump
// the config epoch. Any failure leaves every member on its current
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
	fc, err := loadFileConfig(d.cfg.configFile)
	if err != nil {
		return fail(err)
	}
	base := applyFileConfig(engineFromConfig(d.cfg), fc)
	// All-or-nothing across the fleet: a bad overlay for any tenant
	// rejects the reload for all of them, so tenants never serve mixed
	// config generations.
	specs := make([]engineSpec, len(d.members))
	for i, m := range d.members {
		specs[i] = overlaySpec(base, m.spec)
		if err := m.reloader.check(specs[i]); err != nil {
			return fail(fmt.Errorf("tenant %s: %w", m.spec.ID, err))
		}
	}
	for i, m := range d.members {
		if err := m.reloader.apply(specs[i]); err != nil {
			// check passed on identical inputs; reaching here is a bug,
			// but count and report it rather than hide it.
			return fail(fmt.Errorf("tenant %s: %w", m.spec.ID, err))
		}
	}
	epoch := rs.cfgEpoch.Add(1)
	rs.reloads.Add(1)
	fmt.Fprintf(os.Stderr, "tierd: config reloaded from %s (config epoch %d)\n", d.cfg.configFile, epoch)
	return nil
}

// startReloadWatcher subscribes to SIGHUP when -config is set.
// Returns a stop function, or nil when reloads are not enabled.
func (d *daemon) startReloadWatcher() func() {
	if d.cfg.configFile == "" {
		return nil
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range hup {
			d.reloadConfig() // failures are counted and logged inside
		}
	}()
	return func() {
		signal.Stop(hup)
		close(hup)
		<-done
	}
}

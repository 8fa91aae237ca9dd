package e2e

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"tieredpricing/bench/gen"
)

// Engine IDs the generated exporters stamp; the -tenants file routes
// them to their tenants. Single-tenant daemons ignore them.
const (
	engineBig    = 1
	engineSmall  = 2
	engineSmall2 = 3 // the small plan's second exporting router
)

// Rates of the open-loop schedules.
const (
	pacedPerSec    = 5000 // ingest_udp datagrams/s: 150 k records/s
	overloadPerSec = 50000
	mixedPerSec    = 1000 // online_mixed datagrams/s and quotes/s
	markerEvery    = 50 * time.Millisecond
)

// Lengths are the stage lengths that size generated corpora.
type Lengths struct {
	Paced time.Duration // open-loop ingest at pacedPerSec
	Mixed time.Duration // ingest + quotes + markers at mixedPerSec
}

// Quote mixes of the two workloads, as shares of window hits and RIB
// fallbacks; the rest are unknown destinations (404).
const (
	sharedHit, sharedRIB = 0.80, 0.15
	freshHit, freshRIB   = 0.05, 0.80
)

// QuoteWarm precedes every quoting stage: connections open and tierd's
// first snapshots publish before anything is timed.
const QuoteWarm = 500 * time.Millisecond

// Inputs is everything generated for one run.
type Inputs struct {
	Small, Big *gen.Plan
	SmallDir   string // trace directories: geoip.csv + meta.txt
	BigDir     string
	Tenants    string // the -tenants file
	// PreloadSmall and PreloadFleet are stdin streams: the small plan
	// alone, and both plans stamped for their tenants.
	PreloadSmall string
	PreloadFleet string
	Mix          []gen.Quote // the quote stage's request mix
	Paced        gen.Corpus  // two exporters and half duplicates, or one and none
	Mixed        gen.Corpus  // existing keys of both tenants, no duplicates
}

// Build compiles tierd and tiersim from the checkout at root into bin.
func Build(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/tierd", "./cmd/tiersim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// Generate draws every input of a run from env.Seed and writes the files
// tierd reads under env.Work.
func Generate(env Env, l Lengths) (*Inputs, error) {
	markers := int((l.Mixed+QuoteWarm)/markerEvery) + 8
	small, err := gen.NewPlan("bench200", env.Seed, 14, 200, 200, markers)
	if err != nil {
		return nil, err
	}
	big, err := gen.NewPlan("bench20k", env.Seed+1, 64, 2048, 20000, markers)
	if err != nil {
		return nil, err
	}
	in := &Inputs{
		Small:        small,
		Big:          big,
		SmallDir:     filepath.Join(env.Work, "trace200"),
		BigDir:       filepath.Join(env.Work, "trace20k"),
		Tenants:      filepath.Join(env.Work, "tenants.json"),
		PreloadSmall: filepath.Join(env.Work, "preload200.nf5"),
		PreloadFleet: filepath.Join(env.Work, "preload-fleet.nf5"),
		Mix:          small.QuoteMix(4096, sharedHit, sharedRIB),
	}
	pacedEngines := []uint8{engineSmall, engineSmall2}
	if env.FreshKeys {
		in.Mix = small.QuoteMix(4096, freshHit, freshRIB)
		pacedEngines = pacedEngines[:1]
	}
	for dir, p := range map[string]*gen.Plan{in.SmallDir: small, in.BigDir: big} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, "geoip.csv"), p.GeoIPCSV(), 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, "meta.txt"), p.MetaTxt(), 0o644); err != nil {
			return nil, err
		}
	}
	tenants := gen.TenantsJSON([]gen.Tenant{
		{ID: "big", Trace: in.BigDir, Default: true, Routers: []uint8{engineBig},
			Model: "ced", Strategy: "optimal", Tiers: 4},
		{ID: "small", Trace: in.SmallDir, Routers: []uint8{engineSmall, engineSmall2},
			Model: "logit", Strategy: "profit-weighted", Tiers: 3},
	})
	if err := os.WriteFile(in.Tenants, tenants, 0o644); err != nil {
		return nil, err
	}
	// 20 records per key, as tracegen emits for the paper's datasets; one
	// per key at 20 k keeps the fleet's boot short.
	smallPre := bytes.Join(small.Preload(engineSmall, 20).Datagrams, nil)
	if err := os.WriteFile(in.PreloadSmall, smallPre, 0o644); err != nil {
		return nil, err
	}
	fleetPre := append(bytes.Join(big.Preload(engineBig, 1).Datagrams, nil), smallPre...)
	if err := os.WriteFile(in.PreloadFleet, fleetPre, 0o644); err != nil {
		return nil, err
	}

	// First sequence numbers far above any preload's keep every record
	// of the traffic corpora fresh.
	in.Paced = small.Traffic(int(l.Paced.Seconds()*pacedPerSec), 1<<24, pacedEngines...)
	n := int((l.Mixed + QuoteWarm).Seconds() * mixedPerSec / 2)
	toBig, toSmall := big.Traffic(n, 1<<24, engineBig), small.Traffic(n, 1<<26, engineSmall)
	for i := range toBig.Datagrams {
		in.Mixed.Datagrams = append(in.Mixed.Datagrams, toBig.Datagrams[i], toSmall.Datagrams[i])
	}
	return in, nil
}

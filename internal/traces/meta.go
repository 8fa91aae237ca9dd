package traces

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tieredpricing/internal/econ"
	"tieredpricing/internal/geoip"
)

// Meta is the dataset metadata tracegen writes next to the export
// streams (meta.txt). The collection pipeline needs it to undo the
// capture: the window duration converts de-duplicated octets back to
// Mbps, the blended rate anchors the demand fit, and the dataset name
// selects the per-dataset resolution heuristic.
type Meta struct {
	Dataset     string
	Seed        int64
	Flows       int
	P0          float64 // blended rate, $/Mbps/month
	DurationSec float64
	Sampling    int
	Routers     int
}

// WriteMeta renders the key=value form consumed by ReadMeta.
func WriteMeta(w io.Writer, m Meta) error {
	_, err := fmt.Fprintf(w,
		"dataset=%s\nseed=%d\nflows=%d\nblended_rate=%g\nduration_sec=%g\nsampling=%d\nrouters=%d\n",
		m.Dataset, m.Seed, m.Flows, m.P0, m.DurationSec, m.Sampling, m.Routers)
	return err
}

// ReadMeta parses meta.txt. Unknown keys are ignored so the format can
// grow; the fields the pipeline cannot run without (dataset, a finite
// positive blended rate and duration) are validated.
func ReadMeta(r io.Reader) (Meta, error) {
	meta := Meta{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		var err error
		switch key {
		case "dataset":
			meta.Dataset = value
		case "seed":
			if meta.Seed, err = strconv.ParseInt(value, 10, 64); err != nil {
				return Meta{}, fmt.Errorf("meta: seed: %w", err)
			}
		case "flows":
			if meta.Flows, err = strconv.Atoi(value); err != nil {
				return Meta{}, fmt.Errorf("meta: flows: %w", err)
			}
		case "blended_rate":
			if meta.P0, err = parsePositive(value); err != nil {
				return Meta{}, fmt.Errorf("meta: blended_rate: %w", err)
			}
		case "duration_sec":
			if meta.DurationSec, err = parsePositive(value); err != nil {
				return Meta{}, fmt.Errorf("meta: duration_sec: %w", err)
			}
		case "sampling":
			if meta.Sampling, err = strconv.Atoi(value); err != nil {
				return Meta{}, fmt.Errorf("meta: sampling: %w", err)
			}
		case "routers":
			if meta.Routers, err = strconv.Atoi(value); err != nil {
				return Meta{}, fmt.Errorf("meta: routers: %w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Meta{}, err
	}
	if meta.Dataset == "" || meta.P0 <= 0 || meta.DurationSec <= 0 {
		return Meta{}, fmt.Errorf("meta: incomplete metadata (need dataset, blended_rate, duration_sec)")
	}
	return meta, nil
}

// parsePositive parses a rate, duration or demand, which must be finite
// and positive.
func parsePositive(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !econ.FinitePositive(v) {
		err = fmt.Errorf("%v is not finite and positive", v)
	}
	return v, err
}

// ReadDir reads what a trace directory (tracegen -out) gives the
// collection pipeline: its meta.txt and its geoip.csv.
func ReadDir(dir string) (Meta, *geoip.DB, error) {
	path := filepath.Join(dir, "meta.txt")
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	m, err := ReadMeta(f)
	f.Close()
	if err != nil {
		return Meta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	path = filepath.Join(dir, "geoip.csv")
	if f, err = os.Open(path); err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	geo, err := geoip.ReadCSV(f)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, geo, nil
}

package traces

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"tieredpricing/internal/econ"
)

// flowsCSVHeader is the column layout of the ground-truth interchange
// format written by cmd/tracegen and consumed by cmd/bundlectl's
// recovery check.
var flowsCSVHeader = []string{"id", "demand_mbps", "distance_miles", "region", "onnet"}

// WriteFlowsCSV serializes a flow set's observable ground truth (the
// fitted Valuation/Cost fields are derived, not data, and are omitted).
func WriteFlowsCSV(w io.Writer, flows []econ.Flow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(flowsCSVHeader); err != nil {
		return err
	}
	for _, f := range flows {
		row := []string{
			f.ID,
			strconv.FormatFloat(f.Demand, 'g', -1, 64),
			strconv.FormatFloat(f.Distance, 'g', -1, 64),
			f.Region.String(),
			strconv.FormatBool(f.OnNet),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadFlowsCSV parses the ground-truth interchange format. Demands must be
// finite and positive, distances finite and non-negative.
func ReadFlowsCSV(r io.Reader) ([]econ.Flow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(flowsCSVHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traces: reading header: %w", err)
	}
	for i, want := range flowsCSVHeader {
		if header[i] != want {
			return nil, fmt.Errorf("traces: bad header column %d: %q", i, header[i])
		}
	}
	var out []econ.Flow
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: %w", line, err)
		}
		demand, err := parsePositive(row[1])
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: demand: %w", line, err)
		}
		distance, err := strconv.ParseFloat(row[2], 64)
		if err == nil && !(distance >= 0 && !math.IsInf(distance, 1)) {
			err = fmt.Errorf("%v is not finite and non-negative", distance)
		}
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: distance: %w", line, err)
		}
		region, err := parseRegion(row[3])
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: %w", line, err)
		}
		onNet, err := strconv.ParseBool(row[4])
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: onnet: %w", line, err)
		}
		out = append(out, econ.Flow{
			ID: row[0], Demand: demand, Distance: distance,
			Region: region, OnNet: onNet,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("traces: no flows in CSV")
	}
	return out, nil
}

func parseRegion(s string) (econ.Region, error) {
	switch s {
	case "metro":
		return econ.RegionMetro, nil
	case "national":
		return econ.RegionNational, nil
	case "international":
		return econ.RegionInternational, nil
	default:
		return 0, fmt.Errorf("unknown region %q", s)
	}
}

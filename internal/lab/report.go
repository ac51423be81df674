package lab

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON writes the full report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteRunsTSV writes the per-run table: one row per
// (scenario, strategy, width) execution.
func (r *Report) WriteRunsTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scenario\tshape\tprofile\tstrategy\twidth\tjobs\trounds\tseconds"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\t%d\t%.6f\n",
			run.Scenario, run.Shape, run.Profile, run.Strategy, run.Width,
			run.Jobs, run.Rounds, run.Seconds); err != nil {
			return err
		}
	}
	return nil
}

// WriteCalibrationTSV writes the per-scenario estimation-error table.
// No-op when the report carries no calibration.
func (r *Report) WriteCalibrationTSV(w io.Writer) error {
	if r.Calibration == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "scenario\tjobs\tseconds\tdefault_err\tfitted_err"); err != nil {
		return err
	}
	for _, row := range r.Calibration.Rows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.6f\t%.4f\t%.4f\n",
			row.Scenario, row.Jobs, row.Seconds, row.DefaultErr, row.FittedErr); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "TOTAL\t%d\t\t%.4f\t%.4f\n",
		r.Calibration.Observations, r.Calibration.DefaultErr, r.Calibration.FittedErr)
	return err
}

// Summary renders a short human-readable outcome line.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%d scenarios, %d runs, %d skips, %d lifecycle injections, %d split runs, %d failures",
		r.Scenarios, len(r.Runs), len(r.Skips), r.Injections, r.SplitRuns, len(r.Failures))
	if r.Calibration != nil {
		s += fmt.Sprintf("; calibration over %d jobs: mean error %.3f (default) -> %.3f (fitted)",
			r.Calibration.Observations, r.Calibration.DefaultErr, r.Calibration.FittedErr)
	}
	return s
}

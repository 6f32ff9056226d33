package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestDiffBaseline checks the -bench -baseline gate in both directions: a
// fresh experiment must match its committed value bit for bit and be in
// the baseline, and every baseline experiment must have run.
func TestDiffBaseline(t *testing.T) {
	baseline := []benchSimRecord{
		{Experiment: "fig6", SimulatedUS: 642.288},
		{Experiment: "table1", SimulatedUS: 253995.23575999998},
	}
	cases := []struct {
		name    string
		fresh   []benchSimRecord
		wantErr string // empty: the gate passes
	}{
		{"match", baseline, ""},
		{"drifted simulated_us", []benchSimRecord{
			{Experiment: "fig6", SimulatedUS: 642.288},
			{Experiment: "table1", SimulatedUS: 253995.23576},
		}, `experiment "table1": simulated_us`},
		{"experiment not in baseline", []benchSimRecord{
			{Experiment: "fig6", SimulatedUS: 642.288},
			{Experiment: "table1", SimulatedUS: 253995.23575999998},
			{Experiment: "fig9-quick", SimulatedUS: 1},
		}, `experiment "fig9-quick" missing from baseline`},
		{"baseline experiment missing from run", []benchSimRecord{
			{Experiment: "fig6", SimulatedUS: 642.288},
		}, `baseline experiment "table1" did not run`},
	}

	dir := t.TempDir()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(prev) })
	data, err := json.Marshal(benchReport{Simulated: baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchReportFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := diffBaseline(benchReport{Simulated: c.fresh})
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("gate failed on a matching run: %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("error = %v, want it to contain %q", err, c.wantErr)
			}
		})
	}
}

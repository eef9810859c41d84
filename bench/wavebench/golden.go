package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// goldenEntry is a workload's simulated output. Simulated time and energy
// are model results, not measurements: they must repeat bit for bit on
// every run, seed and host, and a change that only speeds up the host
// code must leave them untouched. JSON float64 round-trips exactly, so
// the values compare with ==.
type goldenEntry struct {
	Config     string  `json:"config"`        // what was simulated
	Digest     string  `json:"digest"`        // timeline or results digest, hex
	SimSeconds float64 `json:"sim_seconds"`   // simulated time
	EnergyJ    float64 `json:"energy_joules"` // simulated energy
}

// goldenSet is the golden file, checked against or (with update) written.
type goldenSet struct {
	path   string
	update bool
}

// check compares a workload's simulated output with its golden entry, or
// records it when updating.
func (g goldenSet) check(workload string, got goldenEntry) error {
	entries := map[string]goldenEntry{}
	b, err := os.ReadFile(g.path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &entries); err != nil {
			return fmt.Errorf("golden file %s: %w", g.path, err)
		}
	case !(g.update && errors.Is(err, os.ErrNotExist)):
		return fmt.Errorf("golden file: %w", err)
	}
	if g.update {
		entries[workload] = got
		if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
			return err
		}
		return writeJSON(g.path, entries)
	}
	want, ok := entries[workload]
	if !ok {
		return fmt.Errorf("golden file %s has no entry for %s", g.path, workload)
	}
	if got != want {
		return fmt.Errorf("simulated output differs from golden:\n  got  %+v\n  want %+v", got, want)
	}
	return nil
}

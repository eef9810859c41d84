package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares two sets of untraced results.json records, given
// as A... -- B..., and prints one verdict per (end-to-end metric,
// workload) pair present in both sets.
func runCompare(specPath string, args []string, w io.Writer) error {
	sep := -1
	for i, s := range args {
		if s == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		return fmt.Errorf("-compare needs A.json... -- B.json...")
	}
	a, b := args[:sep], args[sep+1:]
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	va, err := loadValues(a)
	if err != nil {
		return err
	}
	vb, err := loadValues(b)
	if err != nil {
		return err
	}
	var names []string
	for wl := range va {
		if vb[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %-12s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			xa, xb := va[wl][m.Name], vb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(w, "%-20s %-12s %12.5g %12.5g %+7.2f%% %6.2f%% %6.2f%% %5.0f%%  %s\n",
				wl, m.Name, ma, mb, 100*(mb-ma)/ma, 100*spread(xa), 100*spread(xb), 100*m.Bound,
				verdict(m.Bound, m.Better == "lower", xa, xb))
		}
	}
	return nil
}

// loadValues reads results.json records into workload -> metric ->
// values, skipping traced runs (they report per-layer metrics).
func loadValues(files []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// verdict compares B's runs with A's against a bound given as a share of
// A's median. When either set's interquartile spread exceeds the bound
// the comparison is "unresolved", unless every B run beats every A run.
func verdict(bound float64, lowerBetter bool, a, b []float64) string {
	ma := median(a)
	worse := (median(b) - ma) / ma // > 0 is worse
	if !lowerBetter {
		worse = -worse
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(lowerBetter, a, b) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(lowerBetter bool, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

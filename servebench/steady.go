package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs workload w in runs fresh processes (seeds 1..runs) and
// prints each metric's median, quartiles, and spread — the distance
// between the quartiles as a share of the median — against its bound.
func steady(w workload, runs int, seconds float64, trace int) error {
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 1; i <= runs; i++ {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.Itoa(i),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				last = line
			}
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("run %d: result line: %w", i, err)
		}
		fmt.Printf("run %d (seed %d): correct %v, attempted %d, failed %d (share %.6g)\n",
			i, i, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Printf("%-32s %-6s %12s %12s %12s %8s %6s %7s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "/bound")
	for _, d := range defs {
		v := values[d.name]
		if len(v) == 0 {
			continue
		}
		med := median(v)
		q1, q3 := quartiles(v)
		spread := ratio(q3-q1, med)
		line := fmt.Sprintf("%-32s %-6s %12.6g %12.6g %12.6g %8.4f", d.name, d.unit, q1, med, q3, spread)
		if b, ok := bounds[d.name]; ok && b > 0 {
			line += fmt.Sprintf(" %6.3f %7.3f", b, spread/b)
		}
		fmt.Println(line)
	}
	return nil
}

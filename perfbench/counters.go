package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// checkCounterRecord compares this run's exact counters with the record
// the first run of the same code at the same workload, seed and scale
// left in dir, and writes the record when there is none. Each counter that differs is
// one failure: exact counts are compared, never averaged.
func checkCounterRecord(c *config, dir string, counters map[string]int64) int {
	if len(counters) == 0 {
		return 0
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-scale%g-%s.json", c.Workload, c.Seed, c.Scale, treeHash()))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(data, &prev); err == nil {
			failed := 0
			var names []string
			for k := range counters {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				if old, ok := prev[k]; ok && old != counters[k] {
					failed++
					c.logf("exact counter %s = %d, an earlier run at this seed recorded %d", k, counters[k], old)
				}
			}
			if failed == 0 {
				c.logf("exact counters repeat the earlier run's record")
			}
			return failed
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.logf("cannot record exact counters: %v", err)
		return 0
	}
	data, _ := json.Marshal(counters)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		c.logf("cannot record exact counters: %v", err)
	}
	return 0
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// expectedJSON pins every workload's simulated outputs per scale: the
// programs' self-check values and the exact simulated facts (cycles,
// collections, pauses). They are the same on every machine; a change to
// the simulator's model shows as failed checks. Regenerate with
// --write-expected after a deliberate model change.
//
//go:embed expected.json
var expectedJSON []byte

// facts maps a fact name to its exact value.
type facts map[string]uint64

// expectations maps scale → workload key → pinned facts.
type expectations map[string]map[string]facts

// checker counts correctness checks and compares simulated facts with
// their pinned values. When record is non-nil it collects facts instead
// of comparing them (--write-expected).
type checker struct {
	attempted, failed int
	pinned            map[string]facts
	record            map[string]facts
	log               io.Writer
}

func newChecker(scale string, recording bool, log io.Writer) (*checker, error) {
	var all expectations
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("decode expected.json: %w", err)
	}
	c := &checker{pinned: all[scale], log: log}
	if recording {
		c.record = map[string]facts{}
	}
	return c, nil
}

// check counts one check and reports it when it failed.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if c.failed <= 10 {
		fmt.Fprintf(c.log, "hostbench: check failed: "+format+"\n", args...)
	}
}

// facts checks one run's simulated facts against the pinned ones: one
// check per fact.
func (c *checker) facts(key string, got facts) {
	if c.record != nil {
		c.record[key] = got
		return
	}
	want, ok := c.pinned[key]
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, pinned := want[name]
		switch {
		case !ok || !pinned:
			c.check(false, "%s: %s = %d has no pinned value", key, name, got[name])
		default:
			c.check(got[name] == w, "%s: %s = %d, pinned %d", key, name, got[name], w)
		}
	}
}

// writeExpected merges the recorded facts into the pinned set for scale
// held in the file at path, and writes the whole set back.
func (c *checker) writeExpected(path, scale string) error {
	old, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var all expectations
	if err := json.Unmarshal(old, &all); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	if all == nil {
		all = expectations{}
	}
	if all[scale] == nil {
		all[scale] = map[string]facts{}
	}
	for k, f := range c.record {
		all[scale][k] = f
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

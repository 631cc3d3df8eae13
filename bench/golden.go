package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"cdf"
)

// golden.json holds the exact results of every simulation-workload case for
// goldenSeeds, written by -regen. The binary embeds it, so the check needs
// no file at run time.
//
//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds -regen records.
const goldenSeeds = 10

// goldenKey names one case of one workload at one seed.
func goldenKey(workload string, seed uint64, caseName string) string {
	return fmt.Sprintf("%s/%d/%s", workload, seed, caseName)
}

func loadGolden() (map[string]outcome, error) {
	g := map[string]outcome{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checker is the correctness gate of one run. A case with a golden result
// must reproduce it bit for bit. Any other case must reproduce, on every
// later pass, what it gave the first time: the simulator is deterministic
// in its inputs, so any difference between passes is a bug.
type checker struct {
	workload string
	seed     uint64
	golden   map[string]outcome
	first    map[string]outcome
}

func newChecker(workload string, seed uint64) (*checker, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &checker{workload: workload, seed: seed, golden: g, first: map[string]outcome{}}, nil
}

// check validates one result; an error counts the operation as failed.
func (c *checker) check(sc simCase, got outcome) error {
	if err := plausible(sc, got); err != nil {
		return err
	}
	if want, ok := c.golden[goldenKey(c.workload, c.seed, sc.Name)]; ok {
		if !got.same(want) {
			return fmt.Errorf("%s: result %+v differs from golden %+v", sc.Name, got, want)
		}
		return nil
	}
	if want, ok := c.first[sc.Name]; ok {
		if !got.same(want) {
			return fmt.Errorf("%s: result %+v differs from the same case's earlier %+v", sc.Name, got, want)
		}
		return nil
	}
	c.first[sc.Name] = got
	return nil
}

// reference returns the result a case is checked against, if known.
func (c *checker) reference(name string) (outcome, bool) {
	if want, ok := c.golden[goldenKey(c.workload, c.seed, name)]; ok {
		return want, true
	}
	want, ok := c.first[name]
	return want, ok
}

// regenGolden recomputes every simulation-workload case for seeds
// 1..goldenSeeds and writes them to path, one case per line.
func regenGolden(path string) error {
	g := map[string]outcome{}
	t := &tally{}
	for _, name := range sortedKeys(simWorkloads) {
		w := simWorkloads[name]
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			cases := w.cases(seed)
			runLoop(loopSpec{items: len(cases), maxPasses: 1}, t, func(_, i int) error {
				c := cases[i]
				res, err := cdf.Run(c.Bench, c.Opt)
				if err != nil {
					return fmt.Errorf("%s seed %d %s: %w", name, seed, c.Name, err)
				}
				o := outcomeOf(res)
				if err := plausible(c, o); err != nil {
					return err
				}
				g[goldenKey(name, seed, c.Name)] = o
				return nil
			})
			fmt.Fprintf(os.Stderr, "bench: golden %s seed %d: %d cases\n", name, seed, len(cases))
		}
	}
	if t.failed > 0 {
		return fmt.Errorf("golden regeneration failed: %v", t.errs)
	}
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range sortedKeys(g) {
		kb, _ := json.Marshal(k)    // a string always marshals
		vb, _ := json.Marshal(g[k]) // plain numbers always marshal
		sep := ","
		if i == len(g)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%s: %s%s\n", kb, vb, sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// A/A mode: the noise reading the bounds are set from. It does what
// the driver does to accept the benchmark — for every workload, n runs
// with seeds 1..n, twice — as two interleaved sets (A B A B …) of
// child processes of this same binary, and compares the sets by the
// driver's own rules: each set's spread (Q3−Q1 over the median, as
// Python's statistics.quantiles gives the quartiles) must stay inside
// the metric's bound, and the two medians must agree within it.

// runChild executes one untraced run in a child process and decodes
// the report on its last line of standard output.
func runChild(ctx context.Context, exe, workload string, seed, seconds int) (*report, error) {
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: decode report: %w", workload, seed, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, rep.Failed, rep.Attempted)
	}
	return &rep, nil
}

// runAA prints the A/A report as markdown and fails when any workload ×
// metric breaks its bound.
func runAA(ctx context.Context, n, seconds int) error {
	if n < 2 {
		return errors.New("-aa needs at least 2 runs per set")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	fmt.Printf("# A/A report\n\n")
	fmt.Printf("Two interleaved sets of %d runs per workload (seeds 1..%d, `-seconds %d`) of one binary, %s.\n", n, n, seconds, time.Now().UTC().Format("2006-01-02"))
	fmt.Printf("`diff` is (median B − median A) / median A; `spread` is (Q3 − Q1) / median of a set. Both must stay within `bound`; the benchmark counts as steady while every spread is under a third of it.\n")
	broken := 0
	for _, w := range workloadNames {
		sets := [2]map[string][]float64{{}, {}}
		for seed := 1; seed <= n; seed++ {
			for _, set := range sets {
				rep, err := runChild(ctx, exe, w, seed, seconds)
				if err != nil {
					return err
				}
				for name, mv := range rep.Metrics {
					set[name] = append(set[name], mv.Value)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", w)
		fmt.Println("| metric | median A | median B | diff | A Q1..Q3 | B Q1..Q3 | spread A | spread B | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			qa, qb := quartiles(sets[0][d.Name]), quartiles(sets[1][d.Name])
			diff := (qb[1] - qa[1]) / qa[1]
			sa, sb := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			verdict := "steady"
			switch worst := max(sa, sb); {
			case max(diff, -diff) > d.Bound || (worst > d.Bound && d.Name != "setup_s"):
				// The driver exempts setup_s from the spread rule only.
				verdict = "BROKEN"
				broken++
			case worst > d.Bound/3:
				verdict = "within bound"
			}
			fmt.Printf("| `%s` (%s) | %.6g | %.6g | %+.2f%% | %.6g..%.6g | %.6g..%.6g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, qa[1], qb[1], 100*diff, qa[0], qa[2], qb[0], qb[2], 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if broken > 0 {
		return fmt.Errorf("%d workload × metric pairs broke their bound", broken)
	}
	return nil
}

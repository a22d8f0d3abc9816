// Command bench is the repository's gating benchmark: five workloads over
// recovery method x conflict relation x logging discipline, each a closed
// loop of two clients against a fresh engine, with an oracle check on every
// round. See README.md in this directory for the metric glossary.
//
//	bash bench/run.sh --workload wide-undo --seed 1 --seconds 10 --trace 0
//	go run ./bench                       # every workload, results to bench/out/results.json
//	go run ./bench --trace 1             # per-layer table and bench/out/trace-<workload>.json
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Set-up takes microseconds in memory and milliseconds on disk, too short
// to time once. A trial repeats throwaway set-ups until setupTrialTime of
// timed work has accumulated and yields their mean. One trial runs before
// every round, so the trials are spread over the whole run like every other
// measurement instead of sitting in one burst that a single disturbance of
// the host could cover.
const setupTrialTime = 10 * time.Millisecond

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	txns    int    // scripted transactions per client per round; 0 = the workload's default
	dir     string // scratch and output directory
	// minRounds is the fewest rounds a run reduces, however short seconds
	// is. The command line fixes it at 3; the smoke test lowers it.
	minRounds int
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Rounds    int                `json:"rounds"`
	Txns      int                `json:"txns_per_client_per_round"`
	WallS     float64            `json:"wall_s"`
	Errors    []string           `json:"errors,omitempty"`
}

// runWorkload measures one workload: one short discarded warm-up round,
// then a set-up trial and a round, again and again until cfg.seconds have
// passed. With tracing on, untraced and traced rounds alternate so that the
// overhead of tracing is measured within the run.
func runWorkload(w *workload, cfg config, logw io.Writer) (result, error) {
	began := time.Now()
	txns := cfg.txns
	if txns <= 0 {
		txns = w.txns
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-"+w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)

	r := round{w: w, ids: accountIDs(w.accounts), inflight: w.inflight(cfg.seed), txns: txns}
	for c := range r.scripts {
		r.scripts[c] = w.script(cfg.seed, c, txns)
	}
	seq := 0
	next := func(traced bool, txns int) roundResult {
		rr := r
		rr.traced, rr.txns = traced, txns
		for c := range rr.scripts {
			rr.scripts[c] = r.scripts[c][:txns*w.opsPerTxn]
		}
		rr.dir = filepath.Join(scratch, fmt.Sprintf("round-%03d", seq))
		seq++
		return rr.run()
	}

	vals := make(map[string][]float64)
	res := result{Correct: true, Txns: txns}
	note := func(rr roundResult) {
		for _, e := range rr.errs {
			res.Correct = false
			res.Errors = append(res.Errors, e)
		}
	}

	setupTrial := func() error {
		var spent time.Duration
		n := 0
		for ; spent < setupTrialTime; n++ {
			d, err := w.setupOnce(filepath.Join(scratch, "setup"), r.ids)
			if err != nil {
				return fmt.Errorf("set-up trial: %w", err)
			}
			spent += d
		}
		vals["setup_s"] = append(vals["setup_s"], spent.Seconds()/float64(n))
		return nil
	}

	// The warm-up round: a tenth of a round, run through every phase and
	// discarded apart from its checks.
	note(next(false, max(txns/10, 1)))

	var tracedCPS []float64
	var traceLogs []*spanLog
	layers := make(map[string][]float64)
	start := time.Now()
	for n := 0; n < cfg.minRounds || time.Since(start).Seconds() < cfg.seconds; n++ {
		if err := setupTrial(); err != nil {
			return result{}, err
		}
		rr := next(false, txns)
		note(rr)
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		res.Rounds++
		steady := float64(rr.steadyNS) / 1e9
		vals["commits_per_s"] = append(vals["commits_per_s"], ratio(float64(rr.commits), steady))
		vals["commit_p50_us"] = append(vals["commit_p50_us"], us(float64(rr.p50NS)))
		vals["commit_p99_us"] = append(vals["commit_p99_us"], us(float64(rr.p99NS)))
		vals["allocs_per_commit"] = append(vals["allocs_per_commit"], ratio(float64(rr.mallocs), float64(rr.commits)))
		vals["cpu_us_per_commit"] = append(vals["cpu_us_per_commit"], us(ratio(float64(rr.cpuNS), float64(rr.commits))))
		if w.durable {
			vals["restart_s"] = append(vals["restart_s"], float64(rr.restartNS)/1e9)
		}
		if w.durable && w.checkpoints == 0 {
			// With truncation the image holds whatever suffix the last
			// checkpoint happened to leave, not the log of the round.
			vals["log_bytes_per_commit"] = append(vals["log_bytes_per_commit"], ratio(float64(rr.logBytes), float64(rr.commits)))
		}
		if !cfg.traced {
			continue
		}
		rr = next(true, txns)
		note(rr)
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		tracedCPS = append(tracedCPS, ratio(float64(rr.commits), float64(rr.steadyNS)/1e9))
		for k, v := range rr.layers {
			layers[k] = append(layers[k], v)
		}
		if traceLogs == nil {
			traceLogs = rr.logs
		}
	}

	res.Metrics = make(map[string]summary)
	if cfg.traced {
		for _, d := range perLayer {
			res.Metrics[d.Name] = summary{}
			if v := layers[d.Name]; len(v) > 0 {
				res.Metrics[d.Name] = summarize(v, "")
			}
		}
		// Both passes through the same estimator: the better quartile of
		// each side's rounds.
		off, on := summarize(vals["commits_per_s"], "higher").Value, summarize(tracedCPS, "higher").Value
		res.Metrics["obs.overhead_pct"] = summary{Value: 100 * ratio(off-on, off), N: len(tracedCPS)}
		path := filepath.Join(cfg.dir, "trace-"+w.name+".json")
		if err := writeChromeTrace(path, traceLogs); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(logw, "trace of the first traced round: %s\n", path)
	} else {
		for _, d := range gated {
			if v := vals[d.Name]; len(v) > 0 {
				res.Metrics[d.Name] = summarize(v, d.estimator())
			}
		}
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// contractLine is the last line of standard output the benchmark's driver
// reads: exactly these keys, every metric of the pass with its unit.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a workload's metrics by name with unit, then the contract
// line.
func report(out io.Writer, w *workload, cfg config, res result) error {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	kind := "rounds"
	if cfg.traced {
		kind = "untraced + traced pairs of rounds"
	}
	fmt.Fprintf(out, "%s: %d %s of %d x %d transactions, %d attempted, %d failed, %.1f s\n",
		w.name, res.Rounds, kind, clients, res.Txns, res.Attempted, res.Failed, res.WallS)
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractMetric, len(defs))}
	printMetric := func(d metricDef) {
		s := res.Metrics[d.Name]
		fmt.Fprintf(out, "  %-34s %14.6g %-6s median %.6g min %.6g max %.6g n %d\n", d.Name, s.Value, d.Unit, s.Median, s.Min, s.Max, s.N)
	}
	for _, d := range defs {
		printMetric(d)
		line.Metrics[d.Name] = contractMetric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	if !cfg.traced {
		for _, d := range durableOnly {
			if _, ok := res.Metrics[d.Name]; ok {
				printMetric(d)
			}
		}
	}
	fmt.Fprintf(out, "  %-34s %14.6g %-6s (%d of %d)\n", "failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	if cfg.traced && w.durable {
		fmt.Fprintf(out, "  restart time budget: spans cover %.4f s of the measured %.4f s\n",
			res.Metrics["restart_spans_s"].Value, res.Metrics["restart_s"].Value)
	}
	if cfg.traced {
		verdict := "ok"
		if res.Metrics["txn.client_share.sum"].Value < 0.95 {
			verdict = "UNACCOUNTED: a phase of the client loop has no span"
		}
		fmt.Fprintf(out, "  client time budget: spans cover %.3f of client wall time: %s\n", res.Metrics["txn.client_share.sum"].Value, verdict)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  FAILED CHECK: %s\n", e)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}

// resultsFile is what a run of the benchmark leaves in --out: the
// environment it ran in and each workload's result.
type resultsFile struct {
	Env       environment       `json:"env"`
	Workloads map[string]result `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the transaction scripts are generated from")
	seconds := fs.Float64("seconds", 10, "how long each workload measures: rounds run until this much time has passed")
	trace := fs.Int("trace", 0, "1 = alternate untraced and traced rounds, report the per-layer metrics, write trace files")
	txns := fs.Int("txns", 0, "scripted transactions per client per round (0 = the workload's default)")
	dir := fs.String("dir", filepath.Join("bench", "out"), "directory for WAL/checkpoint scratch, traces and results")
	out := fs.String("out", "", "results file (default <dir>/results.json, or results-trace.json with --trace 1)")
	compare := fs.Bool("compare", false, "compare two results files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace != 0, txns: *txns, dir: *dir, minRounds: 3}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		selected = []workload{*w}
	}
	file := resultsFile{Env: stampEnvironment(cfg), Workloads: make(map[string]result)}
	code := 0
	for i := range selected {
		w := &selected[i]
		res, err := runWorkload(w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		file.Workloads[w.name] = res
		if err := report(stdout, w, cfg, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.dir, "results.json")
		if cfg.traced {
			path = filepath.Join(cfg.dir, "results-trace.json")
		}
	}
	if err := writeResults(path, file); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return code
}

func writeResults(path string, file resultsFile) error {
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeConfig is every workload at 200 transactions per client and one
// round, so tier-1 keeps the harness compiling and its checks live.
func smokeConfig(t *testing.T, traced bool) config {
	return config{seed: 1, txns: 200, traced: traced, dir: t.TempDir(), minRounds: 1}
}

func TestSmokeUntraced(t *testing.T) {
	results := make(map[string]result)
	for i := range workloads {
		w := &workloads[i]
		cfg := smokeConfig(t, false)
		res, err := runWorkload(w, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != clients*200 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d errors=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if _, ok := res.Metrics["restart_s"]; ok != w.durable {
			t.Errorf("%s: restart_s present=%t, want %t", w.name, ok, w.durable)
		}
		if _, ok := res.Metrics["log_bytes_per_commit"]; ok != (w.durable && w.checkpoints == 0) {
			t.Errorf("%s: log_bytes_per_commit present=%t", w.name, ok)
		}
		var out bytes.Buffer
		if err := report(&out, w, cfg, res); err != nil {
			t.Fatal(err)
		}
		checkContractLine(t, w.name, out.String(), endToEnd)
		results[w.name] = res
		if ents, _ := os.ReadDir(cfg.dir); len(ents) != 0 {
			t.Errorf("%s: scratch left behind in %s: %v", w.name, cfg.dir, ents)
		}
	}
	// Redo logging writes fewer bytes per commit than undo logging.
	undo, redo := results["wide-undo"].Metrics["log_bytes_per_commit"].Value, results["wide-redo"].Metrics["log_bytes_per_commit"].Value
	if !(redo > 0 && redo < undo) {
		t.Errorf("log_bytes_per_commit: wide-redo %v, wide-undo %v, want 0 < redo < undo", redo, undo)
	}
}

func TestSmokeTraced(t *testing.T) {
	layers := make(map[string]map[string]summary)
	for i := range workloads {
		w := &workloads[i]
		cfg := smokeConfig(t, true)
		res, err := runWorkload(w, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%t failed=%d errors=%v", w.name, res.Correct, res.Failed, res.Errors)
		}
		var out bytes.Buffer
		if err := report(&out, w, cfg, res); err != nil {
			t.Fatal(err)
		}
		checkContractLine(t, w.name, out.String(), perLayer)
		layers[w.name] = res.Metrics

		data, err := os.ReadFile(filepath.Join(cfg.dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w.name, err)
		}
		seen := make(map[string]bool)
		for _, ev := range trace.TraceEvents {
			seen[ev.Name] = true
		}
		want := []spanKind{spanTxn, spanBegin, spanInvoke, spanCommit, spanAbort}
		if w.think > 0 {
			want = append(want, spanThink)
		}
		if w.durable {
			want = append(want, spanWALOpen, spanCkptLoad, spanRestart)
		}
		if w.checkpoints > 0 {
			want = append(want, spanCheckpoint)
		}
		for _, k := range want {
			if !seen[spanNames[k]] {
				t.Errorf("%s: trace has no %q span", w.name, spanNames[k])
			}
		}
	}

	value := func(workload, metric string) float64 { return layers[workload][metric].Value }
	for name, m := range layers {
		if got := m["txn.client_share.sum"].Value; got < 0.9 || got > 1 {
			t.Errorf("%s: client spans cover %v of client wall time", name, got)
		}
		if got := m["stripe.registry_lock_acqs"].Value; got != 0 {
			t.Errorf("%s: %v registry lock acquisitions, want 0", name, got)
		}
	}
	// The intentions store writes no log records at all.
	for metric := range layers["hot-du"] {
		if strings.HasPrefix(metric, "wal.") && value("hot-du", metric) != 0 {
			t.Errorf("hot-du: %s = %v, want 0", metric, value("hot-du", metric))
		}
	}
	// Redo restart replays winners only; a checkpoint bounds the replay
	// and truncation rewrites nothing.
	if undo, redo := value("wide-undo", "recovery.replayed_records"), value("wide-redo", "recovery.replayed_records"); !(redo > 0 && redo < undo) {
		t.Errorf("recovery.replayed_records: wide-redo %v, wide-undo %v, want 0 < redo < undo", redo, undo)
	}
	if undo, ckpt := value("wide-undo", "recovery.replayed_records"), value("wide-ckpt", "recovery.replayed_records"); !(ckpt > 0 && ckpt < undo/2) {
		t.Errorf("recovery.replayed_records: wide-ckpt %v, wide-undo %v, want a bounded suffix", ckpt, undo)
	}
	if got := value("wide-ckpt", "checkpoint.cycles"); got < 1 {
		t.Errorf("wide-ckpt: %v checkpoint cycles", got)
	}
	if got := value("wide-ckpt", "checkpoint.bytes_rewritten"); got != 0 {
		t.Errorf("wide-ckpt: truncation rewrote %v bytes, want 0", got)
	}
	if got := value("wide-ckpt", "checkpoint.segments_unlinked"); got < 1 {
		t.Errorf("wide-ckpt: truncation unlinked %v segments", got)
	}
}

// checkContractLine checks the last line of a report against the driver's
// contract: exactly the four keys, and exactly the metrics of the pass.
func checkContractLine(t *testing.T, workload, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(line) != 4 {
		t.Errorf("%s: contract line has keys %v", workload, line)
	}
	var metrics map[string]contractMetric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%s: %d metrics on the contract line, want %d", workload, len(metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s: present=%t unit=%q, want unit %q", workload, d.Name, ok, m.Unit, d.Unit)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package are
// what the program emits and what -compare gates on. They must agree.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", spec.PerLayer, perLayer)
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "commits_per_s", Better: "higher", Bound: 0.25}
	a := summarize([]float64{98, 99, 100, 101, 102}, d.Better)
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{97, 99, 100, 101, 102}, within},
		{[]float64{58, 59, 60, 61, 62}, regressed},
		{[]float64{198, 199, 200, 201, 202}, within},  // better, not worse
		{[]float64{50, 60, 70, 100, 200}, unresolved}, // the best round is a third above the value
	} {
		if _, got := verdict(d, a, summarize(c.b, d.Better)); got != c.want {
			t.Errorf("B = %v: verdict %s, want %s", c.b, got, c.want)
		}
	}
	lower := metricDef{Name: "commit_p50_us", Better: "lower", Bound: 0.25}
	if _, got := verdict(lower, summarize([]float64{100, 101, 102}, "lower"), summarize([]float64{140, 141, 142}, "lower")); got != regressed {
		t.Errorf("a 40 %% slower latency: verdict %s, want %s", got, regressed)
	}
}

func TestFilesystemOf(t *testing.T) {
	mounts := "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n/dev/vdb /data/fast xfs rw 0 0\n"
	for path, want := range map[string]string{
		"/root/repo/bench/out": "ext4",
		"/dev/shm/bench":       "tmpfs",
		"/dev/shm":             "tmpfs",
		"/data/fast/x":         "xfs",
		"/data/faster":         "ext4",
	} {
		if got := filesystemOf(path, mounts); got != want {
			t.Errorf("filesystemOf(%q) = %q, want %q", path, got, want)
		}
	}
}

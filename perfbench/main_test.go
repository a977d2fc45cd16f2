package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastResult runs the command and decodes its final output line.
func lastResult(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, res
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		printed := map[string]string{}
		for _, m := range want {
			printed[m.Name] = m.Unit
		}
		for _, m := range got {
			unit, ok := printed[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is in BENCHMARK.json but never printed", kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s: %s unit %q in BENCHMARK.json, %q printed", kind, m.Name, m.Unit, unit)
			}
			delete(printed, m.Name)
		}
		for name := range printed {
			t.Errorf("%s: %s is printed but missing from BENCHMARK.json", kind, name)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestWorkloadsRecordWhy(t *testing.T) {
	for _, w := range readBenchmarkJSON(t).Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
		if strings.TrimSpace(w.Why) == "" {
			t.Errorf("workload %q records no reason", w.Name)
		}
	}
}

func TestRunPrintsEveryEndToEndMetric(t *testing.T) {
	code, res := lastResult(t, "--workload", "geo-d2", "--seed", "5", "--seconds", "0.05", "--trace", "0")
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || !(v.Value > 0) {
			t.Errorf("%s: printed %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
		}
	}
}

// TestTamperedHashFailsRun corrupts one recorded hash: the run must exit
// non-zero, report itself incorrect and raise error_rate.
func TestTamperedHashFailsRun(t *testing.T) {
	exp, err := loadExpected("")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	exp["geo-d2"][seed%recordedSeeds] = "0000000000000000"
	buf, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	code, res := lastResult(t, "--workload", "geo-d2", "--seed", "7", "--seconds", "0.05", "--trace", "1", "--expected", path)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("tampered hash: exit %d, correct %v, failed %d", code, res.Correct, res.Failed)
	}
	if er := res.Metrics["error_rate"].Value; !(er > 0) {
		t.Fatalf("tampered hash: error_rate %v, want > 0", er)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"azureobs/internal/sim.(*Engine).Step":                    "sim",
		"azureobs/internal/storage/reqpath.(*CtxFlat).Begin":      "reqpath",
		"azureobs/internal/core/sched.(*Pool).run":                "core",
		"azureobs/internal/oplog.(*Log).Add":                      "other",
		"azureobs/internal/sim.(*Queue[go.shape.*uint8]).Push":    "sim",
		"net/http.(*conn).serve":                                  "net_http",
		"internal/poll.(*FD).Read":                                "net_http",
		"internal/runtime/syscall.Syscall6":                       "net_http",
		"runtime.mallocgc":                                        "other",
		"runtime.scanobject":                                      "runtime_gc",
		"runtime.gcBgMarkWorker":                                  "runtime_gc",
		"runtime.findRunnable":                                    "runtime_sched",
		"sync.(*Mutex).Lock":                                      "runtime_sched",
		"main.runPhase":                                           "other",
		"azureobs/internal/wire.(*Facade).ServeHTTP":              "wire",
		"azureobs/internal/storage/storerr.(*Error).Error":        "storerr",
		"azureobs/internal/geo.(*World).Run.func1":                "geo",
		"azureobs/internal/metrics.(*Sample).Add":                 "metrics",
		"azureobs/internal/storage/sqlsvc.(*Service).Query":       "other",
		"azureobs/internal/netsim.(*Fabric).TransferFlat.func1":   "netsim",
		"azureobs/internal/storage/station.(*Station).BeginVisit": "station",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

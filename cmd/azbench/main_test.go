package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"azureobs/internal/sim"
)

// Smoke tests: drive the binary's run() in-process at quick scale. They
// assert exit codes, not output — the experiment internals are tested in
// their own packages; what's covered here is the flag plumbing, registry
// lookup and render dispatch that only exist in this command.
func TestRunSingleExperimentQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	for _, name := range []string{"fig3", "queuedepth"} {
		if code := run([]string{"-run", name, "-quick"}); code != 0 {
			t.Fatalf("azbench -run %s -quick exited %d", name, code)
		}
	}
}

func TestRunChaosReportQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	// chaosreport reaches the registry through the modis blank import; its
	// renderer is the default anchors-only path.
	if code := run([]string{"-run", "chaosreport", "-quick", "-workers", "4"}); code != 0 {
		t.Fatalf("azbench -run chaosreport -quick exited %d", code)
	}
}

func TestRunFig8GeoQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	// fig8geo exercises the geo world render path and the -domains flag
	// plumbing through the registry proto.
	if code := run([]string{"-run", "fig8geo", "-quick", "-domains", "2"}); code != 0 {
		t.Fatalf("azbench -run fig8geo -quick -domains 2 exited %d", code)
	}
}

func TestRunGeoBenchQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	dir := t.TempDir()
	out := dir + "/BENCH_geo.json"
	if code := run([]string{"-run", "geobench", "-quick", "-benchout", out}); code != 0 {
		t.Fatalf("azbench -run geobench -quick exited %d", code)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// Gate the fresh capture against copies whose fig8geo-cell d=1 row is
	// rewritten, so both gate outcomes are checked without depending on how
	// fast this host re-times the cell: a 1000x slower baseline must pass,
	// a near-zero wall must fail the 10% band, and a flipped trace hash must
	// fail even with that slack.
	for _, tc := range []struct {
		name string
		edit func(*domainPoint)
		want int
	}{
		{"slow-baseline", func(pt *domainPoint) { pt.WallMS *= 1000 }, 0},
		{"fast-baseline", func(pt *domainPoint) { pt.WallMS = 0.001 }, 1},
		{"flipped-hash", func(pt *domainPoint) {
			pt.WallMS *= 1000
			// Change every digit: '0' becomes '1', anything else '0'.
			pt.TraceHash = strings.Map(func(r rune) rune {
				if r == '0' {
					return '1'
				}
				return '0'
			}, pt.TraceHash)
		}, 1},
	} {
		var rep domainBenchReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatal(err)
		}
		edited := false
		for i := range rep.Points {
			if pt := &rep.Points[i]; pt.Suite == "fig8geo-cell" && pt.Domains == 1 {
				tc.edit(pt)
				edited = true
			}
		}
		if !edited {
			t.Fatal("capture has no fig8geo-cell domains=1 row")
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + tc.name + ".json"
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-run", "geobench", "-gate", path}); code != tc.want {
			t.Errorf("%s: azbench -run geobench -gate exited %d, want %d", tc.name, code, tc.want)
		}
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if code := run([]string{"-run", "nope"}); code != 2 {
		t.Fatalf("azbench -run nope exited %d, want 2", code)
	}
}

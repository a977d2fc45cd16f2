package core

import (
	"fmt"
	"testing"

	"azureobs/internal/sim"
)

// domainGoldens are the golden runs whose units shard over sim.Domains:
// fig1's flat-actor clients under the windowed coordinator (two seeds),
// fig2's driver-process phase sequencing, and the fig2sizes sweep's
// flattened (size, level) grid.
var domainGoldens = []string{"fig1/seed42", "fig1/seed7", "fig2/seed42", "fig2sizes/seed11"}

// TestDomainEquivalence is the domain layer's acceptance test: fig1, fig2
// and fig2sizes cells sharded over domains ∈ {2, 4}, across scheduler
// widths ∈ {1, 4}, reproduce the recorded golden trace hashes exactly and
// the anchors of the width-1 run.
func TestDomainEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("domain equivalence sweeps are slow")
	}
	serial := goldenRuns(1, 1)
	baseAnchors := map[string][]Anchor{}
	for _, k := range domainGoldens {
		_, baseAnchors[k] = goldenHash(serial[k])
	}
	for _, workers := range []int{1, 4} {
		for _, domains := range []int{2, 4} {
			runs := goldenRuns(workers, domains)
			for _, k := range domainGoldens {
				got, anchors := goldenHash(runs[k])
				if want := goldenTraces[k]; got != want {
					t.Errorf("workers=%d domains=%d: %s = %#016x, want recorded golden %#016x",
						workers, domains, k, got, want)
				}
				if fmt.Sprint(anchors) != fmt.Sprint(baseAnchors[k]) {
					t.Errorf("workers=%d domains=%d: %s anchors differ:\n%v\n%v",
						workers, domains, k, anchors, baseAnchors[k])
				}
			}
		}
	}
}

// TestDomainStatsAccumulates checks the Proto.DomainStats sink: a domain run
// reports one group per batch with coordinator timing recorded.
func TestDomainStatsAccumulates(t *testing.T) {
	if testing.Short() {
		t.Skip("domain stats run is slow")
	}
	var acc sim.DomainAccum
	p := Proto{Seed: 42, Clients: []int{1, 8}, Runs: 1, Workers: 1, Domains: 2}
	p.DomainStats = &acc
	RunFig1(Fig1Config{Proto: p, BlobMB: 8})
	// Two levels × one run × two directions = 4 units → 2 groups of width 2.
	if acc.Groups != 2 || acc.Width != 2 {
		t.Fatalf("accumulated %d groups width %d, want 2 groups width 2", acc.Groups, acc.Width)
	}
	if acc.Busy <= 0 || acc.Wall <= 0 || acc.Rounds < acc.Groups {
		t.Fatalf("coordinator accounting empty: busy=%v wall=%v rounds=%d",
			acc.Busy, acc.Wall, acc.Rounds)
	}
	if u := acc.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("utilization %v out of range", u)
	}
}

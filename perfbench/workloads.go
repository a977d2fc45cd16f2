package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/core"
	"azureobs/internal/geo"
	"azureobs/internal/modis"
	"azureobs/internal/sim"
)

// workload is one benchmark workload. A pass is one run of the workload's
// fixed work on a system built by the latest setup; runPhase times setup
// and pass separately and calls verify and close, untimed, after each pass.
type workload interface {
	// configure loads the workload's expected trace hashes.
	configure(exp expected) error
	// inputSeed is the seed pass i of a run with --seed seed generates its
	// inputs from.
	inputSeed(seed uint64, i int) uint64
	// opName says what one operation is.
	opName() string
	// minPasses is the fewest passes a measured phase runs. Workloads
	// whose work differs between input sets run every input set, so that
	// a run's medians and peak memory do not depend on how many passes
	// the host managed.
	minPasses() int
	setup(seed uint64, tr *tracer) error
	pass(tr *tracer) passOut
	verify(out *passOut)
	close()
}

// singleDomain is implemented by the domain-parallel workloads: the same
// work on one domain, for domains.speedup_vs_d1.
type singleDomain interface {
	oneDomain() workload
}

// passOut is what one pass hands back: its raw results for verify, the
// host latency of each operation, per-layer counters (traced passes only)
// and, after verify, the failed operations.
type passOut struct {
	results  []any
	opLat    []float64
	layer    map[string]float64
	failed   int64
	failures []string
}

var workloadNames = []string{"paper-serial", "campaign-d2", "geo-d2", "wire-mix"}

func newWorkload(name string) workload {
	switch name {
	case "paper-serial":
		return &paperSerial{}
	case "campaign-d2":
		return &campaign{domains: 2}
	case "geo-d2":
		return &geoWorld{domains: 2}
	case "wire-mix":
		return &wireMix{}
	}
	return nil
}

// recordedSeeds is the number of input sets with a recorded trace hash:
// pass i of a run with --seed n uses input set (n+i) mod recordedSeeds, so
// every pass of a simulation workload is checked against a hash recorded in
// the tree.
const recordedSeeds = 32

// expected maps a simulation workload to the trace hash of each recorded
// input set, indexed by input seed.
type expected map[string][]string

//go:embed expected.json
var expectedJSON []byte

func loadExpected(path string) (expected, error) {
	buf := expectedJSON
	if path != "" {
		var err error
		if buf, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var exp expected
	if err := json.Unmarshal(buf, &exp); err != nil {
		return nil, fmt.Errorf("expected hashes: %w", err)
	}
	return exp, nil
}

// recordExpected runs every recorded input set of each simulation workload
// on one domain and prints the hashes in the expected.json format. The
// domain-parallel workloads are checked against these single-domain hashes,
// so a run at any width must reproduce the one-domain trace.
func recordExpected(stdout, stderr io.Writer) int {
	exp := expected{}
	for _, name := range []string{"paper-serial", "campaign-d2", "geo-d2"} {
		d1 := newWorkload(name)
		if w, ok := d1.(singleDomain); ok {
			d1 = w.oneDomain()
		}
		for s := uint64(0); s < recordedSeeds; s++ {
			if err := d1.setup(s, nil); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			out := d1.pass(nil)
			d1.close()
			exp[name] = append(exp[name], traceHash(out.results...))
		}
		fmt.Fprintf(stderr, "recorded %s\n", name)
	}
	buf, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

// traceHash folds the printed form of the given values into one FNV-64a
// sum. %+v renders every float64 in shortest round-trip form, so two hashes
// agree exactly when the observable outcomes do.
func traceHash(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v|", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashCheck is the verify step of the simulation workloads: a pass is
// correct when the hash of its results equals the one recorded for its
// input set; otherwise every operation of the pass counts as failed.
type hashCheck struct {
	label  string
	hashes []string
	input  uint64 // input set of the latest setup
}

func (h *hashCheck) load(name string, exp expected) error {
	if len(exp[name]) < recordedSeeds {
		return fmt.Errorf("expected hashes: %s has %d of %d input sets", name, len(exp[name]), recordedSeeds)
	}
	h.label, h.hashes = name, exp[name]
	return nil
}

func (h *hashCheck) inputSeed(seed uint64, i int) uint64 { return (seed + uint64(i)) % recordedSeeds }

func (h *hashCheck) verify(out *passOut) {
	if got, want := traceHash(out.results...), h.hashes[h.input]; got != want {
		out.failed = int64(len(out.opLat))
		out.failures = append(out.failures, fmt.Sprintf("%s input set %d: trace hash %s, recorded %s", h.label, h.input, got, want))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// domainLayer turns one group's coordinator accounting into the domains.*
// per-layer values; events is 0 where the workload does not expose it.
func domainLayer(s sim.DomainStats, events uint64) map[string]float64 {
	m := map[string]float64{
		"domains.rounds":      float64(s.Rounds),
		"domains.mail":        float64(s.Mail),
		"domains.utilization": s.Utilization(),
		"domains.wait_s":      float64(s.Domains)*s.Wall.Seconds() - s.Busy.Seconds(),
	}
	if len(s.PerDomainBusy) > 0 && s.Busy > 0 {
		max := time.Duration(0)
		for _, b := range s.PerDomainBusy {
			if b > max {
				max = b
			}
		}
		m["domains.imbalance"] = max.Seconds() / (s.Busy.Seconds() / float64(len(s.PerDomainBusy)))
	}
	if events > 0 {
		m["sim.events"] = float64(events)
		if s.Rounds > 0 {
			m["domains.events_per_round"] = float64(events) / float64(s.Rounds)
		}
	}
	return m
}

// ---- paper-serial ----

// paperClients is the client ladder of the paper-serial figures: the
// paper's 1 to 192 worker roles at four rungs.
var paperClients = []int{1, 16, 64, 192}

// paperSerial runs the registry's fig1, fig2 and fig3 at reduced scale on
// one engine (Workers=1, Domains=1). An operation is one figure.
type paperSerial struct {
	hashCheck
	cloud *azure.Cloud
}

func (w *paperSerial) configure(exp expected) error { return w.load("paper-serial", exp) }
func (w *paperSerial) opName() string               { return "one registry figure run (fig1, fig2 or fig3)" }
func (w *paperSerial) close()                       { w.cloud = nil }

// minPasses is 1: the three figures do the same work for every input set
// (allocation per pass differs by under 0.1%).
func (w *paperSerial) minPasses() int { return 1 }
func (w *paperSerial) proto(acc *sim.DomainAccum) core.Proto {
	return core.Proto{
		Seed: w.input, Clients: paperClients, Workers: 1, Domains: 1,
		Scale: core.QuickScale, DomainStats: acc,
	}
}

// setup builds what every cell of the three ladders builds first: a cloud
// on the pass's seed. The registry runners build their own, so this times
// the set-up a figure cell pays.
func (w *paperSerial) setup(seed uint64, _ *tracer) error {
	w.input = seed
	w.cloud = azure.NewCloud(azure.Config{Seed: seed})
	return nil
}

func (w *paperSerial) pass(tr *tracer) passOut {
	var acc sim.DomainAccum
	var out passOut
	for _, name := range []string{"fig1", "fig2", "fig3"} {
		e, ok := core.Lookup(name)
		if !ok {
			panic("perfbench: registry has no " + name)
		}
		t0 := time.Now()
		r := e.Run(w.proto(&acc))
		d := time.Since(t0)
		tr.span(name, 0, t0, t0.Add(d))
		out.opLat = append(out.opLat, ms(d))
		out.results = append(out.results, r, r.Anchors())
	}
	if tr != nil {
		out.layer = map[string]float64{
			"domains.rounds":      float64(acc.Rounds),
			"domains.mail":        float64(acc.Mail),
			"domains.utilization": acc.Utilization(),
			"domains.wait_s":      float64(acc.Width)*acc.Wall.Seconds() - acc.Busy.Seconds(),
		}
		if acc.Width == 1 {
			out.layer["domains.imbalance"] = 1
		}
	}
	return out
}

// ---- campaign-d2 ----

// campaign runs the sharded ModisAzure campaign: 14 days, 32 workers, 8
// shards. An operation is one campaign.
type campaign struct {
	hashCheck
	domains int
	c       *modis.Campaign
}

func (w *campaign) oneDomain() workload {
	return &campaign{domains: 1, hashCheck: w.hashCheck}
}
func (w *campaign) configure(exp expected) error { return w.load("campaign-d2", exp) }
func (w *campaign) opName() string               { return "one 14-day campaign" }
func (w *campaign) close()                       { w.c = nil }
func (w *campaign) minPasses() int               { return recordedSeeds }

func (w *campaign) setup(seed uint64, _ *tracer) error {
	w.input = seed
	w.c = modis.NewCampaign(modis.Config{
		Seed:                seed,
		Days:                14,
		Workers:             32,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 140,
		Domains:             w.domains,
		Shards:              8,
	})
	return nil
}

func (w *campaign) pass(tr *tracer) passOut {
	t0 := time.Now()
	st := w.c.Run()
	d := time.Since(t0)
	tr.span("modis.Campaign.Run", 0, t0, t0.Add(d))
	out := passOut{results: []any{fmt.Sprintf("%016x", st.Fingerprint())}}
	if tr != nil {
		out.layer = domainLayer(w.c.DomainStats(), 0)
		execs := st.TotalExecs()
		out.layer["modis.task_execs"] = float64(execs)
		if execs > 0 {
			out.layer["modis.ns_per_task"] = float64(d) / float64(execs)
		}
	}
	return out
}

// ---- geo-d2 ----

// geoWorld runs one four-region world of flat-actor populations with 10%
// geo-replicated writes and read recording off. An operation is one world
// run.
type geoWorld struct {
	hashCheck
	domains int
	w       *geo.World
}

func (w *geoWorld) oneDomain() workload {
	return &geoWorld{domains: 1, hashCheck: w.hashCheck}
}
func (w *geoWorld) configure(exp expected) error { return w.load("geo-d2", exp) }
func (w *geoWorld) opName() string               { return "one four-region world run" }
func (w *geoWorld) close()                       { w.w = nil }
func (w *geoWorld) minPasses() int               { return recordedSeeds }

func (w *geoWorld) setup(seed uint64, _ *tracer) error {
	w.input = seed
	cfg := geo.DefaultConfig()
	cfg.Seed = seed
	cfg.Regions = 4
	cfg.Domains = w.domains
	cfg.ClientsPerRegion = 128
	cfg.Horizon = 120 * time.Second
	cfg.WriteFrac = 0.1
	cfg.RecordReads = false
	cfg.LagSamples = false
	w.w = geo.NewWorld(cfg)
	return nil
}

func (w *geoWorld) pass(tr *tracer) passOut {
	t0 := time.Now()
	stats := w.w.Run()
	d := time.Since(t0)
	tr.span("geo.World.Run", 0, t0, t0.Add(d))
	events := w.w.EventsFired()
	out := passOut{results: []any{*w.w.Report(), events, w.w.Now().Seconds()}}
	if tr != nil {
		out.layer = domainLayer(stats, events)
		if events > 0 {
			out.layer["sim.ns_per_event"] = float64(d) / float64(events)
		}
	}
	return out
}

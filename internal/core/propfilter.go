package core

import (
	"azureobs/internal/azure"
	"azureobs/internal/core/sched"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// PropFilterConfig scales the Section 6.1 ablation: querying a ~220k-entity
// partition with property filters instead of keys, at increasing
// concurrency. The paper observed over half of 32 concurrent clients timing
// out.
type PropFilterConfig struct {
	Proto
	Entities  int // partition population (paper: ~220k)
	PerClient int // filter queries per client
}

// DefaultPropFilterConfig is the paper-scale protocol.
func DefaultPropFilterConfig() PropFilterConfig {
	p := Defaults()
	p.Clients = []int{1, 8, 32}
	return PropFilterConfig{Proto: p, Entities: 220000, PerClient: 1}
}

// PropFilterPoint is the outcome at one concurrency level.
type PropFilterPoint struct {
	Clients     int
	Queries     int
	Timeouts    int
	MeanLatency float64 // seconds, successful queries only
}

// PropFilterResult is the ablation dataset.
type PropFilterResult struct {
	Entities int
	Points   []PropFilterPoint
}

// RunPropFilter executes the property-filter ablation. Each concurrency
// level populates its own cloud, so levels shard over cfg.Workers.
func RunPropFilter(cfg PropFilterConfig) *PropFilterResult {
	if cfg.Entities == 0 {
		cfg.Entities = 220000
	}
	if cfg.Clients == nil {
		cfg.Clients = []int{1, 8, 32}
	}
	if cfg.PerClient == 0 {
		cfg.PerClient = 1
	}
	res := &PropFilterResult{Entities: cfg.Entities}
	pool := sched.New(cfg.Workers)
	res.Points = sched.Map(pool, len(cfg.Clients), func(li int) PropFilterPoint {
		return runPropFilterLevel(cfg, cfg.Clients[li])
	})
	return res
}

func runPropFilterLevel(cfg PropFilterConfig, n int) PropFilterPoint {
	ccfg := azure.Config{Seed: cfg.Seed + uint64(n)}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	cloud := azure.NewCloud(ccfg)
	cloud.Table.CreateTable("bench")
	// Row i carries {A: i%100}; the 100 property maps are shared read-only.
	props := make([]map[string]tablesvc.Prop, 100)
	for v := range props {
		props[v] = map[string]tablesvc.Prop{"A": tablesvc.IntProp(int64(v))}
	}
	slab := make([]tablesvc.Entity, cfg.Entities)
	seqKeys("row-", cfg.Entities, func(i int, rk string) {
		slab[i] = tablesvc.Entity{PartitionKey: "part", RowKey: rk, Props: props[i%100]}
	})
	backdoorSlab(cloud.Table, "bench", slab)
	pt := PropFilterPoint{Clients: n}
	var okCount int
	var okSec float64
	for c := 0; c < n; c++ {
		cloud.Engine.Spawn("scan", func(p *sim.Proc) {
			for i := 0; i < cfg.PerClient; i++ {
				start := p.Now()
				_, err := cloud.Table.QueryFilter(p, "bench", "part",
					func(e *tablesvc.Entity) bool { return e.Props["A"].Int == 7 })
				pt.Queries++
				if storerr.IsCode(err, storerr.CodeTimeout) {
					pt.Timeouts++
					continue
				}
				if err != nil {
					panic(err)
				}
				okCount++
				okSec += (p.Now() - start).Seconds()
			}
		})
	}
	cloud.Engine.Run()
	if okCount > 0 {
		pt.MeanLatency = okSec / float64(okCount)
	}
	return pt
}

// Anchors compares against the Section 6.1 claim.
func (r *PropFilterResult) Anchors() []Anchor {
	var out []Anchor
	for _, pt := range r.Points {
		if pt.Clients == 32 {
			out = append(out, Anchor{
				"filter-query timeout share @32 clients (>50%)", "%",
				55, float64(pt.Timeouts) / float64(pt.Queries) * 100,
			})
		}
		if pt.Clients == 1 {
			out = append(out, Anchor{
				"filter-query timeout share @1 client", "%",
				0, float64(pt.Timeouts) / float64(pt.Queries) * 100,
			})
		}
	}
	return out
}

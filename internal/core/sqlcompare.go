package core

import (
	"fmt"

	"azureobs/internal/azure"
	"azureobs/internal/core/sched"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/storage/sqlsvc"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// SQLCompareConfig scales the SQL Azure vs table storage comparison the
// HPDC 2010 version of the paper ran (the journal revision omitted it for
// space): the same key-addressed insert/select workload against both tiers
// across a concurrency ladder. SQL latency constants are era-plausible but
// uncalibrated (see internal/storage/sqlsvc); the comparison's value is the
// qualitative contrast — a connection-capped relational tier versus the
// shared-nothing table service.
type SQLCompareConfig struct {
	Proto
	RowSize int
	OpsEach int
}

// DefaultSQLCompareConfig mirrors the table experiment's ladder.
func DefaultSQLCompareConfig() SQLCompareConfig {
	p := Defaults()
	p.Clients = []int{1, 8, 32, 64, 128}
	return SQLCompareConfig{Proto: p, RowSize: 1024, OpsEach: 100}
}

// SQLComparePoint is the outcome at one concurrency level.
type SQLComparePoint struct {
	Clients        int
	SQLInsertOps   float64 // per connected client
	SQLSelectOps   float64
	TableInsertOps float64
	TableQueryOps  float64
	ThrottledOpens int // SQL connections rejected at this level
	ConnectedOpens int
}

// SQLCompareResult is the comparison dataset.
type SQLCompareResult struct {
	Points []SQLComparePoint
}

// RunSQLCompare executes the comparison. Each ladder level is an isolated
// pair of clouds and shards over cfg.Workers.
func RunSQLCompare(cfg SQLCompareConfig) *SQLCompareResult {
	if cfg.Clients == nil {
		cfg.Clients = DefaultSQLCompareConfig().Clients
	}
	if cfg.RowSize == 0 {
		cfg.RowSize = 1024
	}
	if cfg.OpsEach == 0 {
		cfg.OpsEach = 100
	}
	res := &SQLCompareResult{}
	pool := sched.New(cfg.Workers)
	res.Points = sched.Map(pool, len(cfg.Clients), func(i int) SQLComparePoint {
		return runSQLCompareLevel(cfg, cfg.Clients[i])
	})
	return res
}

// Anchors reports the comparison's qualitative claims: the table tier keeps
// accepting clients past the point where SQL Azure throttles connections.
func (r *SQLCompareResult) Anchors() []Anchor {
	var out []Anchor
	for _, pt := range r.Points {
		if pt.Clients == 128 {
			out = append(out, Anchor{"SQL throttled opens @128 (>0)", "clients", 64,
				float64(pt.ThrottledOpens)})
		}
	}
	return out
}

func runSQLCompareLevel(cfg SQLCompareConfig, n int) SQLComparePoint {
	ccfg := azure.Config{Seed: cfg.Seed + uint64(n)*7919}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	cloud := azure.NewCloud(ccfg)
	pt := SQLComparePoint{Clients: n}

	// SQL side.
	cloud.SQL.CreateDatabase("bench", sqlsvc.Business)
	for c := 0; c < n; c++ {
		for i := 0; i < cfg.OpsEach; i++ {
			cloud.SQL.Seed("bench", "rows", fmt.Sprintf("pre-%d-%d", c, i), cfg.RowSize)
		}
	}
	var sqlInsertOps, sqlSelectOps int
	var sqlInsertSec, sqlSelectSec float64
	for c := 0; c < n; c++ {
		c := c
		cloud.Engine.Spawn("sql", func(p *sim.Proc) {
			conn, err := cloud.SQL.Open(p, "bench", c)
			if storerr.IsCode(err, storerr.CodeServerBusy) {
				pt.ThrottledOpens++
				return
			}
			if err != nil {
				panic(err)
			}
			pt.ConnectedOpens++
			defer conn.Close()
			start := p.Now()
			for i := 0; i < cfg.OpsEach; i++ {
				if err := conn.Insert(p, "rows", fmt.Sprintf("n-%d-%d", c, i), cfg.RowSize); err != nil {
					panic(err)
				}
				sqlInsertOps++
			}
			sqlInsertSec += (p.Now() - start).Seconds()
			start = p.Now()
			for i := 0; i < cfg.OpsEach; i++ {
				if _, err := conn.Select(p, "rows", fmt.Sprintf("pre-%d-%d", c, i)); err != nil {
					panic(err)
				}
				sqlSelectOps++
			}
			sqlSelectSec += (p.Now() - start).Seconds()
		})
	}
	cloud.Engine.Run()
	if sqlInsertSec > 0 {
		pt.SQLInsertOps = float64(sqlInsertOps) / sqlInsertSec
	}
	if sqlSelectSec > 0 {
		pt.SQLSelectOps = float64(sqlSelectOps) / sqlSelectSec
	}

	// Table storage side (fresh cloud so stations start cold).
	cloud2 := azure.NewCloud(ccfg)
	cloud2.Table.CreateTable("bench")
	pre := make([]*tablesvc.Entity, 0, n*cfg.OpsEach)
	for c := 0; c < n; c++ {
		for i := 0; i < cfg.OpsEach; i++ {
			pre = append(pre, tablesvc.PaddedEntity("part", fmt.Sprintf("pre-%d-%d", c, i), cfg.RowSize))
		}
	}
	cloud2.Table.Backdoor("bench", pre...)
	var tabInsertOps, tabQueryOps int
	var tabInsertSec, tabQuerySec float64
	for c := 0; c < n; c++ {
		c := c
		cloud2.Engine.Spawn("tab", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < cfg.OpsEach; i++ {
				e := tablesvc.PaddedEntity("part", fmt.Sprintf("n-%d-%d", c, i), cfg.RowSize)
				if err := cloud2.Table.Insert(p, "bench", e); err != nil {
					panic(err)
				}
				tabInsertOps++
			}
			tabInsertSec += (p.Now() - start).Seconds()
			start = p.Now()
			for i := 0; i < cfg.OpsEach; i++ {
				if _, err := cloud2.Table.Get(p, "bench", "part", fmt.Sprintf("pre-%d-%d", c, i)); err != nil {
					panic(err)
				}
				tabQueryOps++
			}
			tabQuerySec += (p.Now() - start).Seconds()
		})
	}
	cloud2.Engine.Run()
	pt.TableInsertOps = float64(tabInsertOps) / tabInsertSec
	pt.TableQueryOps = float64(tabQueryOps) / tabQuerySec
	return pt
}

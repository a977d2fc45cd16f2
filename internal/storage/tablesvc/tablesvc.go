// Package tablesvc simulates the Windows Azure table storage service as
// measured in Section 3.2 of the paper: schemaless entities addressed by
// (PartitionKey, RowKey), four operations (Insert, Query, Update, Delete)
// with distinct contention behaviour, a partition ingest capacity whose
// overload produces server-side timeout exceptions at large entity sizes and
// high concurrency, and slow property-filter scans that time out under
// concurrency (Section 6.1).
//
// Calibration (per-client ops/s as a function of concurrency, Fig. 2):
//   - Insert/Query decay gently and do not saturate the server through 192
//     clients (γ < 1, knee beyond the tested range).
//   - Update on a single hot entity peaks in aggregate at 8 clients (γ = 2,
//     n0 = 8): unconditional updates still serialise on the entity's row.
//   - Delete peaks in aggregate at 128 clients (γ = 2, n0 = 128).
package tablesvc

import (
	"maps"
	"slices"
	"strings"
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

// PropKind tags an entity property type.
type PropKind int

// Property kinds (the paper's test entities use {int, int, String, String}).
const (
	PropInt PropKind = iota
	PropString
)

// Prop is one schemaless entity property.
type Prop struct {
	Kind PropKind
	Int  int64
	Str  string
}

// IntProp builds an integer property.
func IntProp(v int64) Prop { return Prop{Kind: PropInt, Int: v} }

// StrProp builds a string property.
func StrProp(v string) Prop { return Prop{Kind: PropString, Str: v} }

// size returns the property's wire size in bytes.
func (p Prop) size() int {
	if p.Kind == PropInt {
		return 8
	}
	return len(p.Str)
}

// Entity is one table row. PadBytes counts filler payload that contributes
// to the wire size without being materialised — the paper's test entities
// carry a sizing string of up to 64 kB whose content is irrelevant.
type Entity struct {
	PartitionKey string
	RowKey       string
	// Props is read-only once the entity is built: many entities may share
	// one map (every PaddedEntity does). To change an entity's properties,
	// assign it a new map; never write through the old one.
	Props    map[string]Prop
	PadBytes int
}

// Size returns the entity's payload size in bytes.
func (e *Entity) Size() int {
	n := len(e.PartitionKey) + len(e.RowKey) + e.PadBytes
	for k, p := range e.Props {
		n += len(k) + p.size()
	}
	return n
}

// paperProps is the property set of every PaddedEntity. It is shared and
// read-only (see Entity.Props).
var paperProps = map[string]Prop{
	"A": IntProp(1),
	"B": IntProp(2),
	"C": StrProp("fixed"),
}

// PaddedEntity builds a paper-style test entity {int, int, String, String}
// padded to the requested total size — the protocol of Section 3.2. The
// fourth (sizing) property is tracked by size only. Every padded entity
// points at one shared, read-only {A:1, B:2, C:"fixed"} property map, so
// building one costs a single allocation.
func PaddedEntity(pk, rk string, totalSize int) *Entity {
	e := &Entity{
		PartitionKey: pk,
		RowKey:       rk,
		Props:        paperProps,
	}
	if pad := totalSize - e.Size(); pad > 0 {
		e.PadBytes = pad
	}
	return e
}

// Config parameterises the service; zero fields take calibrated defaults.
type Config struct {
	Insert, Query, Update, Delete station.Config

	// ServerTimeout is the server-side request deadline; overloaded
	// requests burn this long before failing.
	ServerTimeout time.Duration

	// IngestCapacity is the partition's sustainable write bandwidth. When
	// the offered insert/delete load exceeds it, per-op timeout probability
	// rises as OverloadK·(1−1/ρ) — which reproduces the 64 kB insert
	// survivor counts (94/128 and 89/192 clients finishing 500 ops).
	IngestCapacity netsim.Bandwidth
	OverloadK      float64

	// ScanSecPerEntity and ScanConcurrencyN0 shape property-filter queries:
	// scan latency = entities·ScanSecPerEntity·(1 + n/N0). With ~220k
	// entities and 32 concurrent scanners this exceeds the server timeout
	// more often than not (Section 6.1).
	ScanSecPerEntity  float64
	ScanConcurrencyN0 float64
	ScanCV            float64

	// ClientWriteBW/ClientReadBW convert payload sizes into transfer time
	// added to each op.
	ClientWriteBW netsim.Bandwidth
	ClientReadBW  netsim.Bandwidth

	// Fault injection (default 0; the ModisAzure campaign raises them).
	ConnFailProb   float64
	ServerBusyProb float64
}

// DefaultConfig returns the Fig. 2 calibration.
func DefaultConfig() Config {
	return Config{
		Insert: station.Config{S0: 36 * time.Millisecond, N0: 136, Gamma: 0.9, CV: 0.25},
		Query:  station.Config{S0: 15 * time.Millisecond, N0: 150, Gamma: 0.9, CV: 0.25},
		Update: station.Config{S0: 8 * time.Millisecond, N0: 8, Gamma: 2, CV: 0.3},
		Delete: station.Config{S0: 25 * time.Millisecond, N0: 128, Gamma: 2, CV: 0.3},

		ServerTimeout: 30 * time.Second,

		IngestCapacity: 100 * netsim.MBps,
		OverloadK:      0.0045,

		ScanSecPerEntity:  32e-6,
		ScanConcurrencyN0: 8,
		ScanCV:            0.35,

		ClientWriteBW: 6.5 * netsim.MBps,
		ClientReadBW:  13 * netsim.MBps,
	}
}

// Service is one table storage account endpoint.
type Service struct {
	cfg Config
	rng *simrand.RNG
	pl  *reqpath.Pipeline

	insert, query, update, delete *station.Station

	tables map[string]map[string]map[string]*Entity // table → pk → rk

	scans    int // concurrent property-filter scans
	timeouts uint64
}

// New creates a table service.
func New(eng *sim.Engine, rng *simrand.RNG, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.Insert.S0 == 0 {
		cfg.Insert = def.Insert
	}
	if cfg.Query.S0 == 0 {
		cfg.Query = def.Query
	}
	if cfg.Update.S0 == 0 {
		cfg.Update = def.Update
	}
	if cfg.Delete.S0 == 0 {
		cfg.Delete = def.Delete
	}
	if cfg.ServerTimeout == 0 {
		cfg.ServerTimeout = def.ServerTimeout
	}
	if cfg.IngestCapacity == 0 {
		cfg.IngestCapacity = def.IngestCapacity
	}
	if cfg.OverloadK == 0 {
		cfg.OverloadK = def.OverloadK
	}
	if cfg.ScanSecPerEntity == 0 {
		cfg.ScanSecPerEntity = def.ScanSecPerEntity
	}
	if cfg.ScanConcurrencyN0 == 0 {
		cfg.ScanConcurrencyN0 = def.ScanConcurrencyN0
	}
	if cfg.ScanCV == 0 {
		cfg.ScanCV = def.ScanCV
	}
	if cfg.ClientWriteBW == 0 {
		cfg.ClientWriteBW = def.ClientWriteBW
	}
	if cfg.ClientReadBW == 0 {
		cfg.ClientReadBW = def.ClientReadBW
	}
	r := rng.Fork("tablesvc")
	return &Service{
		cfg: cfg,
		rng: r,
		pl: reqpath.New(r, reqpath.Config{
			Service: "table",
			Faults: reqpath.FaultConfig{
				ConnFailProb:   cfg.ConnFailProb,
				ServerBusyProb: cfg.ServerBusyProb,
			},
			UploadBW:      cfg.ClientWriteBW,
			DownloadBW:    cfg.ClientReadBW,
			ServerTimeout: cfg.ServerTimeout,
		}),
		insert: station.New(cfg.Insert, r.Fork("insert")),
		query:  station.New(cfg.Query, r.Fork("query")),
		update: station.New(cfg.Update, r.Fork("update")),
		delete: station.New(cfg.Delete, r.Fork("delete")),
		tables: make(map[string]map[string]map[string]*Entity),
	}
}

// Pipeline exposes the service's request pipeline for hook installation.
func (s *Service) Pipeline() *reqpath.Pipeline { return s.pl }

// Timeouts returns the count of server-side timeout responses issued.
func (s *Service) Timeouts() uint64 { return s.timeouts }

// CreateTable makes a table (idempotent).
func (s *Service) CreateTable(name string) {
	if _, ok := s.tables[name]; !ok {
		s.tables[name] = make(map[string]map[string]*Entity)
	}
}

// Backdoor inserts entities instantly, bypassing the timed request path.
// It is a setup helper for experiments that need a pre-populated partition
// (e.g. the ~220k-entity partition of Section 3.2).
//
// The result is that of one call per entity in order: a later entity with
// the same (PartitionKey, RowKey) overwrites an earlier one. The partition
// is looked up once per run of equal PartitionKeys, and a run longer than
// the partition it fills rebuilds that partition's map presized for the
// whole run, so a bulk fill never rehashes as it grows.
func (s *Service) Backdoor(table string, es ...*Entity) {
	s.CreateTable(table)
	t := s.tables[table]
	for i := 0; i < len(es); {
		pk := es[i].PartitionKey
		j := i + 1
		for j < len(es) && es[j].PartitionKey == pk {
			j++
		}
		part := t[pk]
		if run := j - i; run > len(part) {
			grown := make(map[string]*Entity, len(part)+run)
			maps.Copy(grown, part)
			part = grown
			t[pk] = part
		}
		for _, e := range es[i:j] {
			part[e.RowKey] = e
		}
		i = j
	}
}

// PartitionSize returns the entity count of one partition.
func (s *Service) PartitionSize(table, pk string) int {
	return len(s.tables[table][pk])
}

func (s *Service) partition(table, pk string) map[string]*Entity {
	t, ok := s.tables[table]
	if !ok {
		return nil
	}
	p, ok := t[pk]
	if !ok {
		p = make(map[string]*Entity)
		t[pk] = p
	}
	return p
}

// overloadProb computes the ingest-overload timeout model for write-class
// ops: with n concurrent clients pushing size-byte payloads at the station's
// mean rate, per-op timeout probability is OverloadK·(1−1/ρ) once offered
// load ρ exceeds 1, and zero otherwise. Shared by the blocking and flat
// request paths so both price overload identically.
func (s *Service) overloadProb(st *station.Station, size int) (prob, rho float64) {
	n := st.Attached()
	if n < 1 {
		n = 1
	}
	offered := float64(n) * float64(size) / st.MeanLatency(n).Seconds()
	rho = offered / float64(s.cfg.IngestCapacity)
	if rho <= 1 {
		return 0, rho
	}
	return s.cfg.OverloadK * (1 - 1/rho), rho
}

// overloaded applies overloadProb on the pipeline's timeout stage: the
// Bernoulli draw, the ServerTimeout burn, and the timeout reply.
func (s *Service) overloaded(c *reqpath.Ctx, st *station.Station, size int) error {
	prob, rho := s.overloadProb(st, size)
	if prob <= 0 {
		return nil
	}
	if err := c.TimeoutFault(prob, "partition ingest overloaded (rho=%.2f)", rho); err != nil {
		s.timeouts++
		return err
	}
	return nil
}

// Insert adds a new entity; inserting an existing (pk, rk) is a conflict.
func (s *Service) Insert(p *sim.Proc, table string, e *Entity) error {
	return s.pl.Do(p, "table.Insert", func(c *reqpath.Ctx) error {
		part := s.partition(table, e.PartitionKey)
		if part == nil {
			return c.Failf(storerr.CodeNotFound, "table %s", table)
		}
		if err := s.overloaded(c, s.insert, e.Size()); err != nil {
			return err
		}
		c.Station(s.insert, c.UploadCost(e.Size()))
		if _, exists := part[e.RowKey]; exists {
			return c.Failf(storerr.CodeConflict, "%s/%s exists", e.PartitionKey, e.RowKey)
		}
		part[e.RowKey] = e
		return nil
	})
}

// Get retrieves one entity by partition and row key — the fast, indexed
// query path of the paper's Query experiment.
func (s *Service) Get(p *sim.Proc, table, pk, rk string) (ent *Entity, err error) {
	err = s.pl.Do(p, "table.Query", func(c *reqpath.Ctx) error {
		part := s.partition(table, pk)
		if part == nil {
			return c.Failf(storerr.CodeNotFound, "table %s", table)
		}
		e, ok := part[rk]
		var respSize int
		if ok {
			respSize = e.Size()
		}
		c.Station(s.query, c.DownloadCost(respSize))
		if !ok {
			return c.Failf(storerr.CodeNotFound, "%s/%s", pk, rk)
		}
		ent = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ent, nil
}

// Update replaces an entity's properties unconditionally (no ETag check) —
// the mode the paper tested so concurrent clients can hit one entity.
func (s *Service) Update(p *sim.Proc, table string, e *Entity) error {
	return s.pl.Do(p, "table.Update", func(c *reqpath.Ctx) error {
		part := s.partition(table, e.PartitionKey)
		if part == nil {
			return c.Failf(storerr.CodeNotFound, "table %s", table)
		}
		c.Station(s.update, c.UploadCost(e.Size()))
		if _, ok := part[e.RowKey]; !ok {
			return c.Failf(storerr.CodeNotFound, "%s/%s", e.PartitionKey, e.RowKey)
		}
		part[e.RowKey] = e
		return nil
	})
}

// Delete removes one entity.
func (s *Service) Delete(p *sim.Proc, table, pk, rk string) error {
	return s.pl.Do(p, "table.Delete", func(c *reqpath.Ctx) error {
		part := s.partition(table, pk)
		if part == nil {
			return c.Failf(storerr.CodeNotFound, "table %s", table)
		}
		e, ok := part[rk]
		size := 0
		if ok {
			size = e.Size()
		}
		if err := s.overloaded(c, s.delete, size); err != nil {
			return err
		}
		c.Station(s.delete, 0)
		if !ok {
			return c.Failf(storerr.CodeNotFound, "%s/%s", pk, rk)
		}
		delete(part, rk)
		return nil
	})
}

// QueryFilter scans a partition evaluating pred on every entity — the
// non-indexed property-filter query the paper warns against (Section 6.1):
// scan latency grows with partition size and concurrent scanners, and
// requests exceeding the server timeout fail. Matches come back in
// ascending RowKey order.
func (s *Service) QueryFilter(p *sim.Proc, table, pk string, pred func(*Entity) bool) (out []*Entity, err error) {
	err = s.pl.Do(p, "table.QueryFilter", func(c *reqpath.Ctx) error {
		part := s.partition(table, pk)
		if part == nil {
			return c.Failf(storerr.CodeNotFound, "table %s", table)
		}
		s.scans++
		defer func() { s.scans-- }()
		// Let simultaneously issued scans register before the cost is priced:
		// a burst of filter queries slows every member of the burst.
		c.P.Yield()
		mean := float64(len(part)) * s.cfg.ScanSecPerEntity * (1 + float64(s.scans)/s.cfg.ScanConcurrencyN0)
		lat := c.Sample(simrand.LogNormalMeanCV(mean, s.cfg.ScanCV))
		if lat > s.cfg.ServerTimeout {
			s.timeouts++
			return c.Timeout("scan of %d entities timed out", len(part))
		}
		c.P.Sleep(lat)
		out = matches(part, pred)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// matches collects the entities of part that pred accepts (all of them for
// a nil pred) in ascending RowKey order. Only the matches are sorted, not
// the whole partition.
func matches(part map[string]*Entity, pred func(*Entity) bool) []*Entity {
	var out []*Entity
	for _, e := range part {
		if pred == nil || pred(e) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *Entity) int { return strings.Compare(a.RowKey, b.RowKey) })
	return out
}

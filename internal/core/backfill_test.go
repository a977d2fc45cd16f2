package core

import (
	"fmt"
	"testing"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/storage/tablesvc"
)

// TestBackfillRows pins the rows backfill materialises: after a partial
// insert phase it tops the partition up to the requested total with
// fill-%06d rows that are byte-for-byte the PaddedEntity of that key.
func TestBackfillRows(t *testing.T) {
	const total, size = 220000, 4096
	cloud := azure.NewCloud(azure.Config{Seed: 1})
	cloud.Table.CreateTable("bench")
	cloud.Table.Backdoor("bench",
		tablesvc.PaddedEntity("part", "row-000-0000", size),
		tablesvc.PaddedEntity("part", "row-001-0000", size))
	backfill(cloud, total, size)
	if got := cloud.Table.PartitionSize("bench", "part"); got != total {
		t.Fatalf("partition holds %d entities, want %d", got, total)
	}

	var rows []*tablesvc.Entity
	var err error
	cloud.Engine.Spawn("scan", func(p *sim.Proc) {
		rows, err = cloud.Table.QueryFilter(p, "bench", "part", func(*tablesvc.Entity) bool { return true })
	})
	cloud.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Ascending RowKey order puts the total-2 fill rows first.
	for i, e := range rows[:total-2] {
		want := tablesvc.PaddedEntity("part", fmt.Sprintf("fill-%06d", i), size)
		if e.PartitionKey != want.PartitionKey || e.RowKey != want.RowKey ||
			e.PadBytes != want.PadBytes || e.Size() != want.Size() || len(e.Props) != len(want.Props) {
			t.Fatalf("fill row %d = %+v, want %+v", i, *e, *want)
		}
	}
}

// TestBackfillAllocs is a host-independent cost gate: filling a fresh
// ~220k-row partition must stay at a few allocations in total, not several
// per row.
func TestBackfillAllocs(t *testing.T) {
	const total, runs = 220000, 2
	clouds := make([]*azure.Cloud, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range clouds {
		clouds[i] = azure.NewCloud(azure.Config{Seed: 1})
		clouds[i].Table.CreateTable("bench")
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		backfill(clouds[next], total, 4096)
		next++
	})
	if perRow := allocs / total; perRow > 0.1 {
		t.Fatalf("backfill: %.0f allocations for %d rows (%.3f per row), want at most 0.1 per row", allocs, total, perRow)
	}
	t.Logf("backfill: %.0f allocations for %d rows", allocs, total)
}

// TestSeqKeys checks seqKeys against fmt's "%06d" across the zero-padding
// boundaries and past fill-999999, where the keys widen.
func TestSeqKeys(t *testing.T) {
	const n = 1_000_003
	seen := 0
	seqKeys("fill-", n, func(i int, key string) {
		if i != seen {
			t.Fatalf("key %d delivered out of order (expected %d)", i, seen)
		}
		seen++
		if want := fmt.Sprintf("fill-%06d", i); key != want {
			t.Fatalf("key %d = %q, want %q", i, key, want)
		}
	})
	if seen != n {
		t.Fatalf("seqKeys delivered %d keys, want %d", seen, n)
	}
}

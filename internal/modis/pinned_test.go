package modis

import (
	"runtime"
	"testing"
	"time"

	"azureobs/internal/storage/reqpath"
)

// pinnedFaults is the storage fault mix of the pinned fault campaigns:
// heavy enough that some operations exhaust their retries, so the terminal
// error paths (a lost task Add, a spent receive token) are pinned too.
var pinnedFaults = reqpath.FaultConfig{ConnFailProb: 0.2, ServerBusyProb: 0.1}

// pinnedCampaigns are sharded short campaigns (seed 42) whose fingerprints
// were recorded before the shard side moved from processes to flat actors.
// The port must be bit-identical, so these words are fixed: a change here is
// a change in campaign behaviour, never a re-record.
var pinnedCampaigns = []struct {
	name string
	cfg  func(width int) Config
	want uint64
}{
	{"clean", func(w int) Config { return shardedShortConfig(42, w, false) }, 0x8ad264116fe6443f},
	{"host-crash", func(w int) Config { return shardedShortConfig(42, w, true) }, 0x228d4fed7a5a172d},
	{"storage-faults", func(w int) Config {
		cfg := shardedShortConfig(42, w, false)
		cfg.StorageFaults = pinnedFaults
		return cfg
	}, 0x940bb482e2dc41c1},
	// Frequent crashes on top of the fault mix: workers die mid station
	// visit, mid retry backoff and parked on the token queue.
	{"crash+faults", func(w int) Config {
		cfg := shardedShortConfig(42, w, true)
		cfg.Chaos.HostCrash.MeanInterarrival = 2 * time.Hour
		cfg.StorageFaults = pinnedFaults
		return cfg
	}, 0xfeebbf8207f6b811},
}

// TestShardedCampaignPinned checks every pinned campaign at widths 1 and 2
// with the invariant harness fail-fast.
func TestShardedCampaignPinned(t *testing.T) {
	for _, pc := range pinnedCampaigns {
		for _, w := range []int{1, 2} {
			camp := NewCampaign(pc.cfg(w))
			camp.EnableInvariants(true)
			st := camp.Run()
			if got := st.Fingerprint(); got != pc.want {
				t.Errorf("%s at width %d: fingerprint %#x, want %#x", pc.name, w, got, pc.want)
			}
			if v := camp.InvariantViolations(); v != 0 {
				t.Errorf("%s at width %d: %d invariant violations", pc.name, w, v)
			}
		}
	}
}

// TestShardedCampaignProcsSpawned checks the shard side runs without
// processes: with chaos off, the only processes a sharded campaign spawns
// on any domain are the coordinator's portal and service manager.
func TestShardedCampaignProcsSpawned(t *testing.T) {
	for _, w := range []int{1, 2} {
		camp := NewCampaign(shardedShortConfig(42, w, false))
		camp.Run()
		var spawned uint64
		for i := 0; i < camp.group.N(); i++ {
			spawned += camp.group.Domain(i).ProcsSpawned()
		}
		if spawned != 2 {
			t.Errorf("width %d: %d processes spawned, want 2 (portal, service manager)", w, spawned)
		}
	}
}

// TestShardedCampaignTeardown runs campaigns back to back — legacy and
// sharded at widths 1 and 2, all with host-crash chaos — and checks that a
// finished campaign leaves no goroutine behind and no heap: before Run tore
// its engines down, every process parked at the horizon kept a goroutine,
// and through it the whole campaign, alive.
func TestShardedCampaignTeardown(t *testing.T) {
	widths := []int{0, 1, 2}
	run := func(i int) {
		cfg := shardedShortConfig(42, widths[i%len(widths)], true)
		cfg.Days = 2
		NewCampaign(cfg).Run()
	}
	settle := func() (goroutines int, heap uint64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	for i := range widths { // warm-up: package-level caches, pools
		run(i)
	}
	baseG, baseHeap := settle()
	const n = 20
	for i := 0; i < n; i++ {
		run(i)
	}
	// A torn-down worker's goroutine exits just after its task channel
	// closes; give the last ones a moment.
	g, heap := settle()
	for deadline := time.Now().Add(5 * time.Second); g > baseG && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		g, heap = settle()
	}
	if g > baseG {
		t.Errorf("%d goroutines after %d campaigns, %d before", g, n, baseG)
	}
	// A leaked campaign retains over a megabyte; allow a little GC noise.
	if grown := int64(heap) - int64(baseHeap); grown > 2<<20 {
		t.Errorf("post-GC heap grew %d KiB over %d campaigns", grown>>10, n)
	}
}

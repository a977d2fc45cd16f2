package fabric

import (
	"fmt"
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// gigE is the host NIC line rate: 1 Gbit/s ≙ 125 MB/s (the cap visible in
// the paper's Fig. 5).
const gigE = 125 * netsim.MBps

// Config sizes a simulated datacenter.
type Config struct {
	Hosts        int  // physical machines
	HostsPerRack int  // rack width
	Degradation  bool // run the host-degradation episode process
	// DegradationConfig overrides DefaultDegradation when Degradation is on.
	DegradationConfig *DegradationConfig
}

// DefaultConfig returns a datacenter big enough for the paper's 192-instance
// experiments plus the ~200-instance ModisAzure deployment.
func DefaultConfig() Config {
	return Config{Hosts: 256, HostsPerRack: 32, Degradation: true}
}

// Datacenter assembles the physical plant: hosts, network fabric and the
// degradation process. It also provides the inter-VM TCP latency and
// bandwidth models behind Figs. 4 and 5.
type Datacenter struct {
	eng *sim.Engine
	net *netsim.Fabric
	rng *simrand.RNG

	hosts        []*Host
	hostsPerRack int
	nextHost     int // placement cursor (rack-striding)

	episodes uint64 // degradation episodes started
	crashes  uint64 // host crashes injected

	// hostDown subscribers run (in kernel context) whenever CrashHost takes
	// a host down; the chaos-aware campaign uses this to kill and later
	// re-acquire the workers that lived there.
	hostDown []func(*Host, []*VM)

	latencyDist simrand.Dist
}

// New builds a datacenter on the engine, seeding all of its stochastic
// components from rng.
func New(eng *sim.Engine, rng *simrand.RNG, cfg Config) *Datacenter {
	if cfg.Hosts <= 0 || cfg.HostsPerRack <= 0 {
		panic(fmt.Sprintf("fabric: bad config %+v", cfg))
	}
	dc := &Datacenter{
		eng:          eng,
		net:          netsim.NewFabric(eng),
		rng:          rng.Fork("fabric"),
		hostsPerRack: cfg.HostsPerRack,
	}
	qrng := dc.rng.Fork("net-quality")
	// Hosts and their NICs live in slabs: building a cloud is on the set-up
	// path of every experiment cell.
	nics := dc.net.NewLinks(cfg.Hosts, "host", "-nic", gigE)
	hosts := make([]Host, cfg.Hosts)
	dc.hosts = make([]*Host, cfg.Hosts)
	for i := range hosts {
		hosts[i] = Host{
			ID:         i,
			Rack:       i / cfg.HostsPerRack,
			NIC:        nics[i],
			netQuality: sampleNetQuality(qrng),
			slowdown:   1,
		}
		dc.hosts[i] = &hosts[i]
	}
	// Fig. 4: cumulative TCP latency between two small VMs. Knots express
	// the published cumulative histogram: ~50% at 1 ms, 75% by 2 ms,
	// a LAN-like mode, and a thin tail to tens of ms.
	dc.latencyDist = simrand.NewEmpirical(
		simrand.CDFPoint{Value: 0.0005, P: 0.02},
		simrand.CDFPoint{Value: 0.001, P: 0.50},
		simrand.CDFPoint{Value: 0.002, P: 0.75},
		simrand.CDFPoint{Value: 0.004, P: 0.87},
		simrand.CDFPoint{Value: 0.010, P: 0.96},
		simrand.CDFPoint{Value: 0.040, P: 1.00},
	)
	if cfg.Degradation {
		dcfg := DefaultDegradation()
		if cfg.DegradationConfig != nil {
			dcfg = *cfg.DegradationConfig
		}
		dc.startDegradation(dcfg)
	}
	return dc
}

// Engine returns the simulation engine.
func (dc *Datacenter) Engine() *sim.Engine { return dc.eng }

// Net returns the network fabric.
func (dc *Datacenter) Net() *netsim.Fabric { return dc.net }

// Hosts returns the physical hosts.
func (dc *Datacenter) Hosts() []*Host { return dc.hosts }

// Episodes returns the number of degradation episodes started so far.
func (dc *Datacenter) Episodes() uint64 { return dc.episodes }

// DegradedHosts returns how many hosts are currently degraded.
func (dc *Datacenter) DegradedHosts() int {
	n := 0
	for _, h := range dc.hosts {
		if h.Degraded() {
			n++
		}
	}
	return n
}

// placeVM picks a host with a rack-striding cursor: successive placements
// land in different racks, approximating Azure's fault-domain spreading
// (consecutive instances of a deployment must not share a failure unit).
// Crashed hosts are skipped; with no crashes the cursor walk is unchanged.
func (dc *Datacenter) placeVM() *Host {
	n := len(dc.hosts)
	stride := dc.hostsPerRack + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	for tries := 0; tries < n; tries++ {
		h := dc.hosts[(dc.nextHost*stride)%n]
		dc.nextHost++
		if !h.down {
			return h
		}
	}
	panic("fabric: no host up for placement")
}

// newVM places a fresh instance on a host and registers it as a resident.
func (dc *Datacenter) newVM(name string, role Role, size Size, state VMState) *VM {
	h := dc.placeVM()
	vm := &VM{Name: name, Role: role, Size: size, Host: h, state: state}
	h.residents = append(h.residents, vm)
	return vm
}

// Racks returns the number of racks in the datacenter.
func (dc *Datacenter) Racks() int {
	return (len(dc.hosts) + dc.hostsPerRack - 1) / dc.hostsPerRack
}

// RackHosts returns the hosts in one rack.
func (dc *Datacenter) RackHosts(rack int) []*Host {
	lo := rack * dc.hostsPerRack
	hi := lo + dc.hostsPerRack
	if lo >= len(dc.hosts) {
		return nil
	}
	if hi > len(dc.hosts) {
		hi = len(dc.hosts)
	}
	return dc.hosts[lo:hi]
}

// Crashes returns the number of host crashes injected so far.
func (dc *Datacenter) Crashes() uint64 { return dc.crashes }

// OnHostDown registers fn to run (in kernel context, synchronously inside
// CrashHost) whenever a host crashes. fn receives the host and the VMs that
// failed with it.
func (dc *Datacenter) OnHostDown(fn func(*Host, []*VM)) {
	dc.hostDown = append(dc.hostDown, fn)
}

// CrashHost takes a host down, failing every starting/ready resident VM, and
// returns the failed instances. Crashing an already-down host is a no-op.
// The host stays out of placement until RebootHost.
func (dc *Datacenter) CrashHost(h *Host) []*VM {
	if h.down {
		return nil
	}
	h.down = true
	h.slowdown = 1 // whatever episode was running dies with the host
	var failed []*VM
	for _, vm := range append([]*VM(nil), h.residents...) {
		if vm.state == VMStarting || vm.state == VMReady {
			vm.setState(dc.eng, VMFailed)
			h.detach(vm)
			failed = append(failed, vm)
		}
	}
	dc.crashes++
	for _, fn := range dc.hostDown {
		fn(h, failed)
	}
	return failed
}

// RebootHost brings a crashed host back into service, healthy and empty of
// the VMs that failed with it. Rebooting an up host is a no-op.
func (dc *Datacenter) RebootHost(h *Host) {
	if !h.down {
		return
	}
	h.down = false
	h.slowdown = 1
}

// DegradeHost applies a compute dilation factor to one host (a chaos
// degradation window, as opposed to the autonomous episode process).
func (dc *Datacenter) DegradeHost(h *Host, factor float64) {
	if factor < 1 {
		factor = 1
	}
	h.slowdown = factor
}

// RestoreHost ends a degradation window, but only if the host still carries
// the factor this window applied — a crash/reboot or a later episode in
// between takes precedence.
func (dc *Datacenter) RestoreHost(h *Host, factor float64) {
	if h.slowdown == factor {
		h.slowdown = 1
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TCPLatency samples one inter-VM TCP roundtrip time (1-byte payload, Fig. 4
// protocol).
func (dc *Datacenter) TCPLatency(rng *simrand.RNG) time.Duration {
	return time.Duration(dc.latencyDist.Sample(rng) * float64(time.Second))
}

// PairBandwidthLink returns a private link whose capacity models the network
// path between two VMs: the GigE line rate scaled by the worse endpoint's
// placement quality, with a small per-measurement jitter. Transfers between
// the pair should traverse [a.NIC, link, b.NIC].
func (dc *Datacenter) PairBandwidthLink(a, b *VM, rng *simrand.RNG) *netsim.Link {
	q := a.Host.netQuality
	if b.Host.netQuality < q {
		q = b.Host.netQuality
	}
	jitter := simrand.Uniform{Lo: 0.97, Hi: 1.03}.Sample(rng)
	capacity := netsim.Bandwidth(float64(gigE) * q * jitter)
	if capacity > gigE {
		capacity = gigE
	}
	return dc.net.NewLink("pair", capacity)
}

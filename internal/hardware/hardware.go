// Package hardware describes heterogeneous GPU clusters: device
// capabilities, host groupings, and the interconnect between devices. It is
// the static substrate every other layer (cost model, parallelizer,
// dispatcher, engines) consumes.
//
// All capacities are in bytes, bandwidths in bytes/second, compute in
// FLOP/s, and latencies in seconds.
package hardware

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GPUSpec captures the capability of one GPU model. PeakFLOPS is the dense
// FP16 (tensor-core where available) throughput; MemBandwidth is HBM/GDDR
// bandwidth. ComputeEff and MemEff derate the peaks to achievable values for
// transformer kernels; LaunchOverhead is the fixed per-kernel cost that
// dominates tiny decode batches on slow parts.
type GPUSpec struct {
	Name           string
	MemBytes       int64   // total device memory
	PeakFLOPS      float64 // dense FP16 FLOP/s
	MemBandwidth   float64 // bytes/s
	ComputeEff     float64 // fraction of PeakFLOPS achievable on GEMM
	MemEff         float64 // fraction of MemBandwidth achievable
	LaunchOverhead float64 // seconds per kernel launch round
	// Tier orders GPU models by computational power; higher is faster.
	// The Parallelizer's exclusion heuristic walks tiers bottom-up.
	Tier int
}

// String returns the spec name.
func (g GPUSpec) String() string { return g.Name }

// EffFLOPS is the achievable FLOP/s for dense kernels.
func (g GPUSpec) EffFLOPS() float64 { return g.PeakFLOPS * g.ComputeEff }

// EffBandwidth is the achievable memory bandwidth.
func (g GPUSpec) EffBandwidth() float64 { return g.MemBandwidth * g.MemEff }

const (
	// GB is one gigabyte (10^9 bytes), the unit vendors quote memory in.
	GB = int64(1e9)
	// GiB is one gibibyte.
	GiB = int64(1) << 30
)

// Built-in GPU presets. Memory sizes follow Table 1 of the paper for the
// three GPUs it uses (A100 80 GB, RTX 3090 24 GB, P100 12 GB); the rest are
// vendor datasheet values. Efficiency factors were calibrated so that the
// perf package reproduces the paper's Table 1 iteration-time ratios.
var (
	A100 = GPUSpec{
		Name: "A100", MemBytes: 80 * GB, PeakFLOPS: 312e12,
		MemBandwidth: 2039e9, ComputeEff: 0.52, MemEff: 0.80,
		LaunchOverhead: 25e-6, Tier: 60,
	}
	H100 = GPUSpec{
		Name: "H100", MemBytes: 80 * GB, PeakFLOPS: 990e12,
		MemBandwidth: 3350e9, ComputeEff: 0.48, MemEff: 0.80,
		LaunchOverhead: 8e-6, Tier: 70,
	}
	V100 = GPUSpec{
		Name: "V100", MemBytes: 32 * GB, PeakFLOPS: 125e12,
		MemBandwidth: 900e9, ComputeEff: 0.50, MemEff: 0.78,
		LaunchOverhead: 10e-6, Tier: 50,
	}
	A40 = GPUSpec{
		Name: "A40", MemBytes: 48 * GB, PeakFLOPS: 150e12,
		MemBandwidth: 696e9, ComputeEff: 0.50, MemEff: 0.78,
		LaunchOverhead: 10e-6, Tier: 45,
	}
	RTX3090 = GPUSpec{
		Name: "3090", MemBytes: 24 * GB, PeakFLOPS: 142e12,
		MemBandwidth: 936e9, ComputeEff: 0.44, MemEff: 0.75,
		LaunchOverhead: 20e-6, Tier: 40,
	}
	L4 = GPUSpec{
		Name: "L4", MemBytes: 24 * GB, PeakFLOPS: 121e12,
		MemBandwidth: 300e9, ComputeEff: 0.45, MemEff: 0.72,
		LaunchOverhead: 11e-6, Tier: 35,
	}
	T4 = GPUSpec{
		Name: "T4", MemBytes: 16 * GB, PeakFLOPS: 65e12,
		MemBandwidth: 320e9, ComputeEff: 0.40, MemEff: 0.70,
		LaunchOverhead: 13e-6, Tier: 20,
	}
	P100 = GPUSpec{
		Name: "P100", MemBytes: 12 * GB, PeakFLOPS: 18.7e12,
		MemBandwidth: 549e9, ComputeEff: 0.33, MemEff: 0.68,
		LaunchOverhead: 120e-6, Tier: 10,
	}
)

// SpecByName resolves a preset GPU spec by its case-insensitive name.
func SpecByName(name string) (GPUSpec, error) {
	for _, s := range []GPUSpec{A100, H100, V100, A40, RTX3090, L4, T4, P100} {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return GPUSpec{}, fmt.Errorf("hardware: unknown GPU spec %q", name)
}

// LinkSpec is a point-to-point alpha-beta channel: transferring n bytes
// costs Alpha + n/Beta seconds.
type LinkSpec struct {
	Name  string
	Alpha float64 // latency, seconds
	Beta  float64 // bandwidth, bytes/s
}

// TransferTime returns the alpha-beta cost of moving n bytes.
func (l LinkSpec) TransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.Alpha + float64(bytes)/l.Beta
}

// Interconnect presets. LAN100G matches the paper's 100 Gbps Ethernet;
// PCIe3/PCIe4 are effective host-internal rates; NVLink3 is included for
// richer clusters. Loopback models a device talking to itself.
var (
	LAN100G  = LinkSpec{Name: "100GbE", Alpha: 25e-6, Beta: 11.0e9}
	LAN25G   = LinkSpec{Name: "25GbE", Alpha: 30e-6, Beta: 2.8e9}
	PCIe3x16 = LinkSpec{Name: "PCIe3x16", Alpha: 6e-6, Beta: 12.0e9}
	PCIe4x16 = LinkSpec{Name: "PCIe4x16", Alpha: 5e-6, Beta: 24.0e9}
	NVLink3  = LinkSpec{Name: "NVLink3", Alpha: 3e-6, Beta: 250e9}
	Loopback = LinkSpec{Name: "loopback", Alpha: 0, Beta: 1e15}
)

// DeviceID identifies a GPU within a Cluster.
type DeviceID int

// Device is one physical GPU placed on a host.
type Device struct {
	ID   DeviceID
	Spec GPUSpec
	Host int // index of owning host
	// Slot is the index of the device within its host.
	Slot int
}

// String renders "A100#3".
func (d Device) String() string { return fmt.Sprintf("%s#%d", d.Spec.Name, d.ID) }

// Host is a machine holding several GPUs connected by IntraLink and exposed
// to the rest of the cluster through the cluster NIC.
type Host struct {
	Name      string
	IntraLink LinkSpec // GPU<->GPU within the host
}

// Cluster is an immutable description of the machines and devices.
type Cluster struct {
	Hosts     []Host
	Devices   []Device
	InterLink LinkSpec // host<->host network
}

// Builder assembles a Cluster host by host.
type Builder struct {
	c   Cluster
	err error
}

// NewBuilder starts a cluster whose hosts are joined by inter.
func NewBuilder(inter LinkSpec) *Builder {
	return &Builder{c: Cluster{InterLink: inter}}
}

// AddHost appends a host with n GPUs of the given spec, connected internally
// by intra. It returns the builder for chaining.
func (b *Builder) AddHost(name string, intra LinkSpec, spec GPUSpec, n int) *Builder {
	if b.err != nil {
		return b
	}
	if n <= 0 {
		b.err = fmt.Errorf("hardware: host %q must have at least one GPU, got %d", name, n)
		return b
	}
	hostIdx := len(b.c.Hosts)
	b.c.Hosts = append(b.c.Hosts, Host{Name: name, IntraLink: intra})
	for i := 0; i < n; i++ {
		b.c.Devices = append(b.c.Devices, Device{
			ID:   DeviceID(len(b.c.Devices)),
			Spec: spec,
			Host: hostIdx,
			Slot: i,
		})
	}
	return b
}

// Build finalizes the cluster.
func (b *Builder) Build() (*Cluster, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.c.Devices) == 0 {
		return nil, fmt.Errorf("hardware: cluster has no devices")
	}
	c := b.c // copy
	return &c, nil
}

// MustBuild is Build that panics on error, for tests and presets.
func (b *Builder) MustBuild() *Cluster {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// PaperCluster reproduces the evaluation cluster of §7.1: one host with four
// A100-80GB, two hosts with two RTX 3090 each, and one host with four P100,
// all joined by 100 Gbps Ethernet with PCIe3 inside each host.
func PaperCluster() *Cluster {
	return NewBuilder(LAN100G).
		AddHost("a100-node", PCIe4x16, A100, 4).
		AddHost("3090-node-0", PCIe3x16, RTX3090, 2).
		AddHost("3090-node-1", PCIe3x16, RTX3090, 2).
		AddHost("p100-node", PCIe3x16, P100, 4).
		MustBuild()
}

// ParseCluster resolves a cluster name: "" or "paper" is PaperCluster, and
// a list like "4xA100,4x3090,4xP100" builds one PCIe4 host per entry, the
// hosts joined by 100 GbE.
func ParseCluster(spec string) (*Cluster, error) {
	if spec == "" || spec == "paper" {
		return PaperCluster(), nil
	}
	b := NewBuilder(LAN100G)
	for i, part := range strings.Split(spec, ",") {
		count, name, ok := strings.Cut(strings.TrimSpace(part), "x")
		if !ok {
			return nil, fmt.Errorf("hardware: bad cluster entry %q (want e.g. 4xA100)", part)
		}
		n, err := strconv.Atoi(count)
		if err != nil {
			return nil, fmt.Errorf("hardware: bad count in %q: %v", part, err)
		}
		gpu, err := SpecByName(name)
		if err != nil {
			return nil, err
		}
		b.AddHost(fmt.Sprintf("host%d-%s", i, gpu.Name), PCIe4x16, gpu, n)
	}
	return b.Build()
}

// Device returns the device with the given id.
func (c *Cluster) Device(id DeviceID) Device {
	return c.Devices[id]
}

// NumDevices reports the number of GPUs in the cluster.
func (c *Cluster) NumDevices() int { return len(c.Devices) }

// Link returns the channel connecting two devices: Loopback for a device to
// itself, the host's intra link if colocated, and the cluster inter link
// otherwise.
func (c *Cluster) Link(a, b DeviceID) LinkSpec {
	if a == b {
		return Loopback
	}
	da, db := c.Devices[a], c.Devices[b]
	if da.Host == db.Host {
		return c.Hosts[da.Host].IntraLink
	}
	return c.InterLink
}

// TotalMemory sums device memory across the cluster.
func (c *Cluster) TotalMemory() int64 {
	var total int64
	for _, d := range c.Devices {
		total += d.Spec.MemBytes
	}
	return total
}

// DevicesByType groups device IDs by GPU spec name, ordered from the
// highest to the lowest tier. Devices inside each group keep ID order.
func (c *Cluster) DevicesByType() []TypeGroup {
	byName := map[string]*TypeGroup{}
	var order []string
	for _, d := range c.Devices {
		g, ok := byName[d.Spec.Name]
		if !ok {
			g = &TypeGroup{Spec: d.Spec}
			byName[d.Spec.Name] = g
			order = append(order, d.Spec.Name)
		}
		g.IDs = append(g.IDs, d.ID)
	}
	groups := make([]TypeGroup, 0, len(order))
	for _, name := range order {
		groups = append(groups, *byName[name])
	}
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Spec.Tier != groups[j].Spec.Tier {
			return groups[i].Spec.Tier > groups[j].Spec.Tier
		}
		return groups[i].Spec.Name < groups[j].Spec.Name
	})
	return groups
}

// TypeGroup is the set of devices sharing one GPU model.
type TypeGroup struct {
	Spec GPUSpec
	IDs  []DeviceID
}

// String summarizes the cluster composition, e.g.
// "4xA100 + 4x3090 + 4xP100 (3 hosts? ...)".
func (c *Cluster) String() string {
	var parts []string
	for _, g := range c.DevicesByType() {
		parts = append(parts, fmt.Sprintf("%dx%s", len(g.IDs), g.Spec.Name))
	}
	return fmt.Sprintf("%s over %d hosts (%s)", strings.Join(parts, " + "), len(c.Hosts), c.InterLink.Name)
}

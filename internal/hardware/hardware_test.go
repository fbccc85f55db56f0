package hardware

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"A100", "a100", "3090", "P100", "p100", "H100", "V100", "T4", "A40", "L4"} {
		if _, err := SpecByName(name); err != nil {
			t.Errorf("SpecByName(%q) unexpected error: %v", name, err)
		}
	}
	if _, err := SpecByName("TPUv4"); err == nil {
		t.Error("SpecByName(TPUv4) should fail")
	}
}

func TestTierOrdering(t *testing.T) {
	if !(A100.Tier > RTX3090.Tier && RTX3090.Tier > P100.Tier) {
		t.Fatalf("tier ordering broken: A100=%d 3090=%d P100=%d", A100.Tier, RTX3090.Tier, P100.Tier)
	}
	if !(H100.Tier > A100.Tier) {
		t.Fatal("H100 should outrank A100")
	}
}

func TestMemoryCapacitiesMatchPaperTable1(t *testing.T) {
	// Table 1: A100 80GB, 3090 24GB, P100 12GB. The paper reports A100
	// having 3.33x and 6.67x the capacity of 3090 and P100.
	if got := float64(A100.MemBytes) / float64(RTX3090.MemBytes); math.Abs(got-3.33) > 0.01 {
		t.Errorf("A100/3090 memory ratio = %.2f want 3.33", got)
	}
	if got := float64(A100.MemBytes) / float64(P100.MemBytes); math.Abs(got-6.67) > 0.01 {
		t.Errorf("A100/P100 memory ratio = %.2f want 6.67", got)
	}
}

func TestTransferTime(t *testing.T) {
	l := LinkSpec{Alpha: 1e-5, Beta: 1e9}
	if got := l.TransferTime(0); got != 0 {
		t.Errorf("zero bytes should cost 0, got %g", got)
	}
	if got := l.TransferTime(-5); got != 0 {
		t.Errorf("negative bytes should cost 0, got %g", got)
	}
	want := 1e-5 + 1e6/1e9
	if got := l.TransferTime(1e6); math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferTime(1MB)=%g want %g", got, want)
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return LAN100G.TransferTime(x) <= LAN100G.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCluster(t *testing.T) {
	c := PaperCluster()
	if got := c.NumDevices(); got != 12 {
		t.Fatalf("paper cluster has %d devices, want 12", got)
	}
	if got := len(c.Hosts); got != 4 {
		t.Fatalf("paper cluster has %d hosts, want 4", got)
	}
	groups := c.DevicesByType()
	if len(groups) != 3 {
		t.Fatalf("expected 3 GPU types, got %d", len(groups))
	}
	// DevicesByType orders high tier to low.
	if groups[0].Spec.Name != "A100" || groups[1].Spec.Name != "3090" || groups[2].Spec.Name != "P100" {
		t.Fatalf("type order wrong: %v %v %v", groups[0].Spec.Name, groups[1].Spec.Name, groups[2].Spec.Name)
	}
	if len(groups[0].IDs) != 4 || len(groups[1].IDs) != 4 || len(groups[2].IDs) != 4 {
		t.Fatalf("group sizes wrong: %d %d %d", len(groups[0].IDs), len(groups[1].IDs), len(groups[2].IDs))
	}
}

func TestClusterLinks(t *testing.T) {
	c := PaperCluster()
	// Device 0..3 are the A100s on one host; 4,5 and 6,7 are 3090s on two
	// separate hosts.
	if got := c.Link(0, 0); got.Name != "loopback" {
		t.Errorf("self link = %s want loopback", got.Name)
	}
	if got := c.Link(0, 1); got.Name != "PCIe4x16" {
		t.Errorf("intra-host A100 link = %s want PCIe4x16", got.Name)
	}
	if c.Devices[4].Host != c.Devices[5].Host {
		t.Error("3090s 4 and 5 should share a host")
	}
	if c.Devices[5].Host == c.Devices[6].Host {
		t.Error("3090s 5 and 6 are on different hosts")
	}
	if got := c.Link(5, 6); got.Name != "100GbE" {
		t.Errorf("inter-host link = %s want 100GbE", got.Name)
	}
	if got := c.Link(0, 11); got.Name != "100GbE" {
		t.Errorf("A100<->P100 link = %s want 100GbE", got.Name)
	}
}

func TestTotalMemory(t *testing.T) {
	c := PaperCluster()
	want := 4*A100.MemBytes + 4*RTX3090.MemBytes + 4*P100.MemBytes
	if got := c.TotalMemory(); got != want {
		t.Fatalf("TotalMemory=%d want %d", got, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(LAN100G).Build(); err == nil {
		t.Error("empty cluster should fail to build")
	}
	if _, err := NewBuilder(LAN100G).AddHost("bad", PCIe3x16, A100, 0).Build(); err == nil {
		t.Error("zero-GPU host should fail to build")
	}
	// Error sticks across subsequent calls.
	if _, err := NewBuilder(LAN100G).
		AddHost("bad", PCIe3x16, A100, -1).
		AddHost("ok", PCIe3x16, A100, 2).
		Build(); err == nil {
		t.Error("builder error should persist")
	}
}

func TestParseCluster(t *testing.T) {
	for _, name := range []string{"", "paper"} {
		c, err := ParseCluster(name)
		if err != nil || !reflect.DeepEqual(c, PaperCluster()) {
			t.Errorf("ParseCluster(%q) = %v, %v; want the paper cluster", name, c, err)
		}
	}
	c, err := ParseCluster("2xA100, 4xT4")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != "2xA100 + 4xT4 over 2 hosts (100GbE)" {
		t.Errorf("ParseCluster(2xA100, 4xT4) = %q", got)
	}
	for _, bad := range []string{"bogus", "NaNxA100", "2xNoGPU", "0xA100", "2xA100,"} {
		if _, err := ParseCluster(bad); err == nil {
			t.Errorf("ParseCluster(%q) succeeded, want an error", bad)
		}
	}
}

func TestDeviceString(t *testing.T) {
	c := PaperCluster()
	if got := c.Device(0).String(); got != "A100#0" {
		t.Errorf("Device(0)=%q want A100#0", got)
	}
	if got := c.Device(11).String(); got != "P100#11" {
		t.Errorf("Device(11)=%q want P100#11", got)
	}
}

func TestEffectiveRates(t *testing.T) {
	for _, s := range []GPUSpec{A100, RTX3090, P100, H100, V100, T4, A40, L4} {
		if s.EffFLOPS() <= 0 || s.EffFLOPS() > s.PeakFLOPS {
			t.Errorf("%s: EffFLOPS %g out of range (peak %g)", s.Name, s.EffFLOPS(), s.PeakFLOPS)
		}
		if s.EffBandwidth() <= 0 || s.EffBandwidth() > s.MemBandwidth {
			t.Errorf("%s: EffBandwidth %g out of range", s.Name, s.EffBandwidth())
		}
		if s.LaunchOverhead <= 0 {
			t.Errorf("%s: LaunchOverhead must be positive", s.Name)
		}
	}
}

func TestClusterString(t *testing.T) {
	got := PaperCluster().String()
	if got == "" {
		t.Fatal("empty cluster string")
	}
	for _, sub := range []string{"4xA100", "4x3090", "4xP100", "100GbE"} {
		if !contains(got, sub) {
			t.Errorf("cluster string %q missing %q", got, sub)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package tech

import (
	"math"
	"testing"

	"ivory/internal/numeric"
)

func TestLookupBuiltinNodes(t *testing.T) {
	for _, name := range []string{"130nm", "90nm", "65nm", "45nm", "32nm", "22nm", "14nm", "10nm"} {
		n, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if n.Name != name {
			t.Errorf("node name %s != %s", n.Name, name)
		}
		if n.VddNominal <= 0 || n.FeatureM <= 0 {
			t.Errorf("%s: non-positive basic fields: %+v", name, n)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("7nm"); err == nil {
		t.Error("expected error for unknown node")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup should panic on unknown node")
		}
	}()
	MustLookup("not-a-node")
}

func TestScalingTrends(t *testing.T) {
	names := []string{"130nm", "90nm", "65nm", "45nm", "32nm", "22nm", "14nm", "10nm"}
	for i := 1; i < len(names); i++ {
		older := MustLookup(names[i-1])
		newer := MustLookup(names[i])
		oc := older.Switches[CoreDevice]
		nc := newer.Switches[CoreDevice]
		if nc.ROnWidth >= oc.ROnWidth {
			t.Errorf("Ron*W should improve %s -> %s", names[i-1], names[i])
		}
		if nc.LeakPerWidth <= oc.LeakPerWidth {
			t.Errorf("leakage per width should worsen %s -> %s", names[i-1], names[i])
		}
		om := older.Capacitors[MOSCap]
		nm := newer.Capacitors[MOSCap]
		if nm.DensityFPerM2 <= om.DensityFPerM2 {
			t.Errorf("MOS cap density should grow %s -> %s", names[i-1], names[i])
		}
		if newer.VddNominal > older.VddNominal {
			t.Errorf("Vdd should not grow %s -> %s", names[i-1], names[i])
		}
	}
}

func TestSwitchDeviceScaling(t *testing.T) {
	n := MustLookup("45nm")
	sw, err := n.Switch(CoreDevice)
	if err != nil {
		t.Fatal(err)
	}
	w := 1e-3 // 1 mm of width
	r := sw.ROn(w)
	if r <= 0 {
		t.Fatal("ROn must be positive")
	}
	// Doubling the width halves the resistance and doubles the caps.
	if math.Abs(sw.ROn(2*w)-r/2) > 1e-12*r {
		t.Error("ROn does not scale as 1/W")
	}
	if math.Abs(sw.CGate(2*w)-2*sw.CGate(w)) > 1e-25 {
		t.Error("CGate does not scale with W")
	}
	if math.Abs(sw.WidthForROn(r)-w) > 1e-15 {
		t.Error("WidthForROn is not the inverse of ROn")
	}
	if sw.Area(w) <= 0 || sw.Leakage(w) <= 0 {
		t.Error("area/leakage should be positive")
	}
	if sw.ROn(0) != 0 || sw.WidthForROn(0) != 0 {
		t.Error("zero-width edge cases")
	}
}

func TestSwitchForVoltage(t *testing.T) {
	n := MustLookup("45nm")
	// Low-voltage switch: core device, single stack.
	dev, stack, err := n.SwitchForVoltage(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Class != CoreDevice || stack != 1 {
		t.Errorf("0.9 V: got %v stack %d, want core stack 1", dev.Class, stack)
	}
	// 3.3 V needs either a deep core stack or the IO device; the IO device
	// should win on the Ron*Cg figure of merit.
	dev33, stack33, err := n.SwitchForVoltage(3.3)
	if err != nil {
		t.Fatal(err)
	}
	if float64(stack33)*dev33.VMax < 3.3 {
		t.Errorf("returned switch cannot block 3.3 V: %v x%d", dev33.VMax, stack33)
	}
	if dev33.Class != IODevice {
		t.Errorf("expected IO device for 3.3 V, got %v (stack %d)", dev33.Class, stack33)
	}
	// Absurd voltage: error.
	if _, _, err := n.SwitchForVoltage(100); err == nil {
		t.Error("expected error for 100 V")
	}
}

// TestSwitchForVoltageAllocFree pins the device lookup at zero heap
// allocations: every SC switch plan and buck/LDO design calls it.
func TestSwitchForVoltageAllocFree(t *testing.T) {
	n := MustLookup("45nm")
	for _, v := range []float64{0.9, 3.3} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := n.SwitchForVoltage(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("SwitchForVoltage(%g) allocates %v times per call, want 0", v, allocs)
		}
	}
}

func TestCapacitorOptions(t *testing.T) {
	n := MustLookup("45nm")
	mos, err := n.Capacitor(MOSCap)
	if err != nil {
		t.Fatal(err)
	}
	trench, err := n.Capacitor(DeepTrench)
	if err != nil {
		t.Fatal(err)
	}
	if trench.DensityFPerM2 <= mos.DensityFPerM2 {
		t.Error("deep trench must be denser than MOS cap")
	}
	if trench.BottomPlateRatio >= mos.BottomPlateRatio {
		t.Error("deep trench must have lower bottom-plate ratio")
	}
	c := 1e-9 // 1 nF
	if mos.Area(c) <= 0 {
		t.Error("capacitor area must be positive")
	}
	// Area halves when density doubles: consistency check via trench.
	if trench.Area(c) >= mos.Area(c) {
		t.Error("denser capacitor should use less area")
	}
	if mos.ESR(c) <= 0 || mos.ESR(0) != 0 {
		t.Error("ESR behaviour wrong")
	}
	// 130 nm has no trench cap.
	if _, err := MustLookup("130nm").Capacitor(DeepTrench); err == nil {
		t.Error("130nm should not offer deep trench")
	}
}

func TestInductorFrequencyRollOff(t *testing.T) {
	n := MustLookup("45nm")
	ind, err := n.Inductor(IntegratedThinFilm)
	if err != nil {
		t.Fatal(err)
	}
	l0 := 10e-9
	lLow := ind.LEff(l0, 10e6)
	lHigh := ind.LEff(l0, 500e6)
	if lHigh >= lLow {
		t.Errorf("integrated inductance should roll off with f: %v vs %v", lLow, lHigh)
	}
	if ind.LEff(l0, 100e9) < 0.2*l0*0.99 {
		t.Error("roll-off must be floored at 20%")
	}
	// Resistance grows with frequency (skin effect).
	if ind.Resistance(l0, 1e9) <= ind.Resistance(l0, 0) {
		t.Error("AC resistance should exceed DCR")
	}
	if ind.Area(l0) <= 0 {
		t.Error("integrated inductor area must be positive")
	}
	sm, err := n.Inductor(SurfaceMount)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sm.Area(1e-6), sm.FixedAreaM2, 0) {
		t.Error("surface-mount area should be the fixed footprint")
	}
}

func TestAddNodeValidation(t *testing.T) {
	if err := AddNode(nil); err == nil {
		t.Error("nil node must be rejected")
	}
	if err := AddNode(&Node{Name: ""}); err == nil {
		t.Error("unnamed node must be rejected")
	}
	if err := AddNode(&Node{Name: "x"}); err == nil {
		t.Error("node without switches must be rejected")
	}
	custom := &Node{
		Name:       "custom-28nm",
		FeatureM:   28e-9,
		VddNominal: 0.95,
		Switches: map[DeviceClass]SwitchDevice{
			CoreDevice: {Class: CoreDevice, ROnWidth: 1e-3, CGatePerWidth: 1e-9, VMax: 1.1, AreaPerWidth: 1e-6},
		},
		Capacitors: map[CapacitorKind]CapacitorOption{},
		Inductors:  map[InductorKind]InductorOption{},
	}
	if err := AddNode(custom); err != nil {
		t.Fatal(err)
	}
	got, err := Lookup("custom-28nm")
	if err != nil || !numeric.ApproxEqual(got.VddNominal, 0.95, 0) {
		t.Errorf("custom node roundtrip failed: %v %v", got, err)
	}
}

func TestNodesSorted(t *testing.T) {
	names := Nodes()
	if len(names) < 8 {
		t.Fatalf("expected >= 8 builtin nodes, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Nodes() must be sorted")
		}
	}
}

func TestLEffWithEmptyPolynomial(t *testing.T) {
	ind := InductorOption{LFreqCoeff: nil}
	if !numeric.ApproxEqual(ind.LEff(5e-9, 1e9), 5e-9, 0) {
		t.Error("empty polynomial should mean frequency-independent L")
	}
	ind2 := InductorOption{LFreqCoeff: numeric.Polynomial{1}}
	if !numeric.ApproxEqual(ind2.LEff(5e-9, 1e9), 5e-9, 0) {
		t.Error("unit polynomial should leave L unchanged")
	}
}

func TestDeviceClassStrings(t *testing.T) {
	if CoreDevice.String() != "core" || IODevice.String() != "io" {
		t.Error("DeviceClass strings")
	}
	if MOSCap.String() != "mos" || DeepTrench.String() != "deep-trench" || MIMCap.String() != "mim" {
		t.Error("CapacitorKind strings")
	}
	if SurfaceMount.String() != "surface-mount" || IntegratedThinFilm.String() != "integrated-thin-film" {
		t.Error("InductorKind strings")
	}
	if DeviceClass(9).String() == "" || CapacitorKind(9).String() == "" || InductorKind(9).String() == "" {
		t.Error("unknown enum strings should be non-empty")
	}
}

package dynamic

import (
	"math"
	"testing"

	"ivory/internal/ldo"
	"ivory/internal/numeric"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

func scParams() SCParams {
	return SCParams{
		Ratio: 0.5, VIn: 2.0,
		CEq: 40e-9, REq: 0.04,
		COut: 25e-9, FClk: 200e6,
	}
}

func TestSCValidate(t *testing.T) {
	s := &SCSimulator{P: scParams()}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := scParams()
	bad.CEq = 0
	if err := (&SCSimulator{P: bad}).Validate(); err == nil {
		t.Error("zero CEq must fail")
	}
	bad = scParams()
	bad.Ratio = -1
	if err := (&SCSimulator{P: bad}).Validate(); err == nil {
		t.Error("negative ratio must fail")
	}
}

func TestSCRegulatesToReference(t *testing.T) {
	s := &SCSimulator{P: scParams()}
	vref := 0.9
	tr, err := s.Run(Constant(0.3), Constant(vref), 4e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of the second half should sit at/just below the reference
	// (lower-bound hysteretic control rides the reference from below +
	// pump overshoot above).
	half := tr.V[len(tr.V)/2:]
	mean := numeric.Mean(half)
	if math.Abs(mean-vref) > 0.05 {
		t.Errorf("regulated mean %v, want ~%v", mean, vref)
	}
	if tr.SwitchEvents == 0 {
		t.Error("no pump events")
	}
	if tr.AvgFSw <= 0 || tr.AvgFSw > s.P.FClk {
		t.Errorf("average fsw %v outside (0, FClk]", tr.AvgFSw)
	}
}

func TestSCLoadStepDroop(t *testing.T) {
	s := &SCSimulator{P: scParams()}
	vref := 0.9
	step := Step(0.1, 0.8, 2e-6)
	tr, err := s.Run(step, Constant(vref), 5e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Find the worst droop after the step.
	worst := vref
	for i, tt := range tr.Times {
		if tt >= 2e-6 && tr.V[i] < worst {
			worst = tr.V[i]
		}
	}
	droop := vref - worst
	if droop <= 0 {
		t.Error("load step must produce a droop")
	}
	// And the converter must recover: final value close to vref.
	if math.Abs(tr.V[len(tr.V)-1]-vref) > 0.06 {
		t.Errorf("did not recover: %v", tr.V[len(tr.V)-1])
	}
}

func TestSCDVFSTracking(t *testing.T) {
	// Fast DVFS: reference steps up mid-run; output must follow.
	s := &SCSimulator{P: scParams()}
	vr := Step(0.7, 0.9, 2e-6)
	tr, err := s.Run(Constant(0.2), vr, 6e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Before: near 0.7; after settling: near 0.9.
	var before, after []float64
	for i, tt := range tr.Times {
		if tt > 1e-6 && tt < 2e-6 {
			before = append(before, tr.V[i])
		}
		if tt > 5e-6 {
			after = append(after, tr.V[i])
		}
	}
	if m := numeric.Mean(before); math.Abs(m-0.7) > 0.05 {
		t.Errorf("pre-DVFS level %v, want ~0.7", m)
	}
	if m := numeric.Mean(after); math.Abs(m-0.9) > 0.05 {
		t.Errorf("post-DVFS level %v, want ~0.9", m)
	}
}

func TestSCInterleavingReducesRipple(t *testing.T) {
	p1 := scParams()
	p1.Interleave = 1
	p4 := scParams()
	p4.Interleave = 4
	load := Constant(0.3)
	tr1, err := (&SCSimulator{P: p1}).Run(load, Constant(0.9), 4e-6, 0.1e-9)
	if err != nil {
		t.Fatal(err)
	}
	tr4, err := (&SCSimulator{P: p4}).Run(load, Constant(0.9), 4e-6, 0.1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Compare steady-state ripple on the second half.
	r1 := numeric.PeakToPeak(tr1.V[len(tr1.V)/2:])
	r4 := numeric.PeakToPeak(tr4.V[len(tr4.V)/2:])
	if r4 >= r1 {
		t.Errorf("interleaving should reduce ripple: %v -> %v", r1, r4)
	}
}

// The cycle-by-cycle model must settle at the static model's droop
// prediction: V = M*VIn - I*Rout(fsw).
func TestCycleByCycleMatchesStaticDroop(t *testing.T) {
	p := scParams()
	s := &SCSimulator{P: p}
	fsw := 100e6
	iload := 0.3
	tr, err := s.CycleByCycle(Constant(iload), fsw, 10e-6)
	if err != nil {
		t.Fatal(err)
	}
	vFinal := tr.V[len(tr.V)-1]
	// Equivalent static impedances of the lumped model.
	rssl := 1 / (p.CEq * fsw)
	rfsl := 2 * p.REq
	exp := 1 - math.Exp(-1/(fsw*2*p.REq*p.CEq))
	// Steady state of Eq. 2: droop = I*T/(CEq*exp).
	want := p.Ratio*p.VIn - iload/(fsw*p.CEq*exp)
	if math.Abs(vFinal-want) > 1e-3 {
		t.Errorf("settled at %v, want %v", vFinal, want)
	}
	// The settled droop lies between the SSL-only and quadrature bounds.
	droop := p.Ratio*p.VIn - vFinal
	if droop < iload*rssl*0.99 || droop > iload*(rssl+rfsl)*1.01 {
		t.Errorf("droop %v outside [%v, %v]", droop, iload*rssl, iload*(rssl+rfsl))
	}
}

func TestSCRunValidation(t *testing.T) {
	s := &SCSimulator{P: scParams()}
	if _, err := s.Run(Constant(0), Constant(0.9), 0, 1e-9); err == nil {
		t.Error("zero T must fail")
	}
	if _, err := s.Run(Constant(0), Constant(0.9), 1e-6, 1e-7); err == nil {
		t.Error("dt above tick period must fail")
	}
	if _, err := s.CycleByCycle(Constant(0), 0, 1e-6); err == nil {
		t.Error("zero fsw must fail")
	}
}

func buckParams() BuckParams {
	return BuckParams{
		VIn: 3.3, L: 10e-9, RL: 0.05,
		COut: 100e-9, FSw: 100e6, Interleave: 4,
	}
}

func TestBuckRegulatesAndRecovers(t *testing.T) {
	s := &BuckSimulator{P: buckParams()}
	vref := 1.0
	step := Step(0.5, 2.0, 4e-6)
	tr, err := s.Run(step, Constant(vref), 10e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Settled before the step.
	var pre, post []float64
	for i, tt := range tr.Times {
		if tt > 3e-6 && tt < 4e-6 {
			pre = append(pre, tr.V[i])
		}
		if tt > 9e-6 {
			post = append(post, tr.V[i])
		}
	}
	if m := numeric.Mean(pre); math.Abs(m-vref) > 0.05 {
		t.Errorf("pre-step level %v", m)
	}
	if m := numeric.Mean(post); math.Abs(m-vref) > 0.05 {
		t.Errorf("post-step level %v (no recovery)", m)
	}
	// Droop at the step moment exists.
	worst := vref
	for i, tt := range tr.Times {
		if tt >= 4e-6 && tt < 6e-6 && tr.V[i] < worst {
			worst = tr.V[i]
		}
	}
	if vref-worst <= 0 {
		t.Error("no droop on load step")
	}
}

func TestBuckValidation(t *testing.T) {
	s := &BuckSimulator{P: buckParams()}
	if _, err := s.Run(Constant(0.5), Constant(1), 1e-6, 1e-7); err == nil {
		t.Error("coarse dt must fail")
	}
	bad := buckParams()
	bad.L = 0
	if err := (&BuckSimulator{P: bad}).Validate(); err == nil {
		t.Error("zero L must fail")
	}
	sat := buckParams()
	s2 := &BuckSimulator{P: sat}
	if _, err := s2.Run(Constant(0.5), Constant(3.4), 1e-6, 0.2e-9); err == nil {
		t.Error("reference above VIn must saturate duty and fail")
	}
}

func ldoParams() LDOParams {
	return LDOParams{VIn: 1.8, GPass: 10, Segments: 64, COut: 20e-9, FSample: 200e6}
}

func TestLDORegulatesAndTracks(t *testing.T) {
	s := &LDOSimulator{P: ldoParams()}
	vref := 1.0
	tr, err := s.Run(Constant(0.5), Constant(vref), 4e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	mean := numeric.Mean(tr.V[len(tr.V)/2:])
	if math.Abs(mean-vref) > 0.05 {
		t.Errorf("LDO regulated mean %v", mean)
	}
	// Load step droop + recovery.
	tr2, err := s.Run(Step(0.2, 1.5, 2e-6), Constant(vref), 6e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	final := numeric.Mean(tr2.V[9*len(tr2.V)/10:])
	if math.Abs(final-vref) > 0.05 {
		t.Errorf("LDO did not recover: %v", final)
	}
}

func TestLDOProportionalFasterThanBangBang(t *testing.T) {
	pb := ldoParams()
	pp := ldoParams()
	pp.Proportional = true
	step := Step(0.2, 1.5, 1e-6)
	trB, err := (&LDOSimulator{P: pb}).Run(step, Constant(1.0), 3e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	trP, err := (&LDOSimulator{P: pp}).Run(step, Constant(1.0), 3e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	minP, _ := numeric.MinMax(trP.V)
	minB, _ := numeric.MinMax(trB.V)
	if minP <= minB {
		t.Errorf("proportional control should cut the droop: min %v vs %v", minP, minB)
	}
}

func TestLDOValidation(t *testing.T) {
	bad := ldoParams()
	bad.Segments = 0
	if err := (&LDOSimulator{P: bad}).Validate(); err == nil {
		t.Error("zero segments must fail")
	}
	s := &LDOSimulator{P: ldoParams()}
	if _, err := s.Run(Constant(0), Constant(1), 1e-6, 1e-7); err == nil {
		t.Error("coarse dt must fail")
	}
}

func TestZOHProperties(t *testing.T) {
	fsw := 100e6
	if math.Abs(real(ZOH(0, fsw))-1) > 1e-12 {
		t.Error("ZOH(0) must be 1")
	}
	// Magnitude decays with frequency.
	m1 := cmplxAbs(ZOH(10e6, fsw))
	m2 := cmplxAbs(ZOH(300e6, fsw))
	if m2 >= m1 {
		t.Errorf("ZOH should decay: %v -> %v", m1, m2)
	}
	// Nulls at multiples of fsw.
	if cmplxAbs(ZOH(fsw, fsw)) > 1e-9 {
		t.Error("ZOH must null at fsw")
	}
}

func TestFreqModelRegulationAdvantage(t *testing.T) {
	m := FreqModel{FSw: 200e6, COut: 1e-9, GLoop: 0.5}
	// The paper's Fig. 6 finding: at/above fsw the converter is just a
	// capacitor (advantage ~ 1); far below, regulation wins.
	lo := m.RegulationAdvantage(1e6)
	hi := m.RegulationAdvantage(400e6)
	if lo < 3 {
		t.Errorf("low-frequency regulation advantage too small: %v", lo)
	}
	if math.Abs(hi-1) > 0.35 {
		t.Errorf("above fsw the advantage should be ~1, got %v", hi)
	}
}

func TestSignalsAndTrace(t *testing.T) {
	s := Sampled([]float64{1, 2, 3}, 1e-6)
	if !numeric.ApproxEqual(s(-1), 1, 0) || !numeric.ApproxEqual(s(0.5e-6), 1, 0) || !numeric.ApproxEqual(s(1.5e-6), 2, 0) || !numeric.ApproxEqual(s(10e-6), 3, 0) {
		t.Error("Sampled wrong")
	}
	tn := Tones(5, []float64{1}, []float64{1e6})
	if math.Abs(tn(0)-5) > 1e-12 {
		t.Error("Tones base wrong")
	}
	if math.Abs(tn(0.25e-6)-6) > 1e-9 {
		t.Error("Tones peak wrong")
	}
	tr := &Trace{Times: []float64{0, 1e-9, 2e-9}, V: []float64{1, 0.9, 1.1}}
	if math.Abs(tr.PeakToPeak()-0.2) > 1e-12 {
		t.Error("PeakToPeak wrong")
	}
	f, a := tr.Spectrum()
	if len(f) == 0 || len(a) != len(f) {
		t.Error("Spectrum shape wrong")
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// Line regulation (the third validation scenario the paper lists): an
// input-voltage step propagates into the output attenuated by the ratio
// and the feedback re-regulates.
func TestSCLineRegulation(t *testing.T) {
	p := scParams()
	p.Interleave = 4
	s := &SCSimulator{
		P:   p,
		VIn: Step(2.0, 2.3, 3e-6), // 300 mV line step
	}
	vref := 0.9
	tr, err := s.Run(Constant(0.3), Constant(vref), 8e-6, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	var pre, post []float64
	var peak float64
	for i, tt := range tr.Times {
		if tt > 2e-6 && tt < 3e-6 {
			pre = append(pre, tr.V[i])
		}
		if tt > 7e-6 {
			post = append(post, tr.V[i])
		}
		if tt >= 3e-6 && tt < 4e-6 && tr.V[i] > peak {
			peak = tr.V[i]
		}
	}
	mPre, mPost := numeric.Mean(pre), numeric.Mean(post)
	// The feedback holds the output across the line step.
	if math.Abs(mPre-vref) > 0.03 || math.Abs(mPost-vref) > 0.03 {
		t.Errorf("line step broke regulation: pre %v, post %v", mPre, mPost)
	}
	// The transient overshoot stays bounded well below the ratio-scaled
	// input step (the hysteretic loop only pumps below the reference, so
	// line steps cannot push the output past ref + pump granularity).
	if peak > vref+0.15*0.5+0.05 {
		t.Errorf("line-step overshoot too large: %v", peak)
	}
}

func TestFromDesignMappings(t *testing.T) {
	node := tech.MustLookup("45nm")
	top, err := topology.SeriesParallel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	scd, err := sc.New(sc.Config{
		Analysis: an, Node: node, CapKind: tech.DeepTrench,
		VIn: 1.8, VOut: 0.8, CTotal: 40e-9, GTotal: 120, CDecap: 10e-9,
		Interleave: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := SCFromDesign(scd)
	if !numeric.ApproxEqual(p.Ratio, an.Ratio, 0) || p.Interleave != 4 {
		t.Errorf("SCFromDesign fields wrong: %+v", p)
	}
	// CEq reproduces RSSL at any frequency: 1/(CEq*f) == RSSL(f).
	f := 100e6
	if math.Abs(1/(p.CEq*f)-scd.RSSL(f)) > 1e-9*scd.RSSL(f) {
		t.Error("CEq does not reproduce RSSL")
	}
	// REq reproduces RFSL.
	if math.Abs(2*p.REq-scd.RFSL()) > 1e-12 {
		t.Error("REq does not reproduce RFSL")
	}
	pl, err := SCFromDesignAtLoad(scd, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if pl.FClk <= 0 || pl.FClk > scd.Config().FSwMax {
		t.Errorf("load-aware clock %v out of range", pl.FClk)
	}
	// Unsustainable load errors out.
	if _, err := SCFromDesignAtLoad(scd, 1e6); err == nil {
		t.Error("unsustainable load must fail")
	}

	ld, err := ldo.New(ldo.Config{Node: node, VIn: 1.2, VOut: 0.9, GPass: 10, COut: 10e-9, FSample: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	lp := LDOFromDesign(ld)
	if !numeric.ApproxEqual(lp.GPass, 10, 0) || lp.Segments < 2 {
		t.Errorf("LDOFromDesign fields wrong: %+v", lp)
	}
	if err := (&LDOSimulator{P: lp}).Validate(); err != nil {
		t.Error(err)
	}
}

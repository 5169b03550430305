package dynamic

import (
	"math"
	"math/cmplx"
)

// ZOH returns the zero-order-hold frequency response of the converter's
// switches at noise frequency f for switching frequency fsw (paper Eq. 4),
// normalized to unity DC gain:
//
//	F_sw(jω) = (1 − e^{−jω/f_sw}) / (jω/f_sw)
//
// |ZOH| → 1 for f << f_sw and → 0 for f >> f_sw: the converter cannot
// regulate noise above its switching frequency (paper Eq. 5).
func ZOH(f, fsw float64) complex128 {
	if fsw <= 0 {
		return 0
	}
	if f == 0 {
		return 1
	}
	jwT := complex(0, 2*math.Pi*f/fsw)
	return (1 - cmplx.Exp(-jwT)) / jwT
}

// FreqModel is the generalized converter interference model of the paper's
// Fig. 5: a feedback loop of controller/driver (lumped into a
// transconductance GLoop), switches (ZOH), and the load-side output
// capacitance COut.
type FreqModel struct {
	// FSw is the switching frequency (Hz).
	FSw float64
	// COut is the output-facing capacitance (F).
	COut float64
	// GLoop is the DC loop transconductance (A of correction per V of
	// error, S): controller gain x driver x converter charge rate.
	GLoop float64
}

// Response returns the interference transfer |V_out/V_noise|(f) of paper
// Eq. 3: H = F_L / (1 + F_L·F_ctl·F_sw) with F_L = 1/(jωC) and the
// controller collapsed into GLoop:
//
//	H(jω) = 1 / (jωC + GLoop·F_sw(jω))
//
// The noise here is referred as an interfering current at the output node,
// so H has units of impedance (V per A of noise).
func (m FreqModel) Response(f float64) complex128 {
	jwC := complex(0, 2*math.Pi*f*m.COut)
	den := jwC + complex(m.GLoop, 0)*ZOH(f, m.FSw)
	return 1 / den
}

// BareCapResponse returns the response of a bare decoupling capacitor of
// the same size — the comparison of the paper's Fig. 6.
func (m FreqModel) BareCapResponse(f float64) complex128 {
	if f == 0 {
		return complex(math.Inf(1), 0)
	}
	return 1 / complex(0, 2*math.Pi*f*m.COut)
}

// RegulationAdvantage returns |bare cap response| / |converter response| at
// f: how much better the converter suppresses noise than a bare capacitor.
// It approaches 1 above the switching frequency (no advantage) and grows
// below it (active regulation).
func (m FreqModel) RegulationAdvantage(f float64) float64 {
	hc := cmplx.Abs(m.Response(f))
	hb := cmplx.Abs(m.BareCapResponse(f))
	if hc == 0 {
		return math.Inf(1)
	}
	return hb / hc
}

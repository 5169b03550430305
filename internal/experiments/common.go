// Package experiments regenerates every table and figure of the paper's
// evaluation (Figs. 4, 6-13 and Tables 1-2) and the extension studies.
// Each experiment is a function returning a result; the result describes
// its rows once as a report.Table, from which its text table (Format) and
// its CSV files (WriteCSV) are both rendered. All lists the experiments
// with their renderers: cmd/ivory-exp prints and writes them, and the
// root-level benchmarks time the runners. Seeds are fixed so runs are
// reproducible.
//
// Absolute numbers differ from the paper — the baseline is this repo's own
// MNA simulator rather than Cadence, devices come from the built-in
// technology tables rather than the authors' PDKs, and workload traces are
// synthetic — but each experiment reproduces the paper's qualitative shape:
// who wins, how curves bend, and where crossovers sit. EXPERIMENTS.md
// records the paper-vs-measured comparison.
package experiments

import (
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// seed fixes all stochastic inputs of the experiments.
const seed = 20170618 // DAC'17 began June 18, 2017

// mustSC builds the reference 2:1 SC design used by several validation
// experiments: 32 nm, 1.8 V in, deep-trench flying caps.
func mustSC(ctot, gtot, vout float64, fswMax float64) (*sc.Design, *topology.Topology, *topology.Analysis, error) {
	top, err := topology.SeriesParallel(2, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	an, err := top.Analyze()
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := sc.New(sc.Config{
		Analysis: an,
		Node:     tech.MustLookup("32nm"),
		CapKind:  tech.DeepTrench,
		VIn:      1.8,
		VOut:     vout,
		CTotal:   ctot,
		GTotal:   gtot,
		CDecap:   ctot / 2,
		FSwMax:   fswMax,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return d, top, an, nil
}

// excerpt returns about parts evenly spaced indices of n samples, from the
// first: the rows of a text excerpt of a waveform.
func excerpt(n, parts int) []int {
	step := max(n/parts, 1)
	var rows []int
	for k := 0; k < n; k += step {
		rows = append(rows, k)
	}
	return rows
}

// upTo returns 0, 1, ..., n-1: the rows of a table whose columns index
// parallel slices.
func upTo(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

package main

import (
	"math/rand"
)

// experimentsBlock is the experiments interleave: every 28 ops hold one
// paperBlock (seven figure runs, about half the time) and 21 transient
// ops, in a seeded order. The slowest figure then sets p99, and p50 lands
// inside the spread of Fig10 run times rather than between two op types.
var experimentsBlock = shares(len(paperBlock), 4*len(paperBlock))

// experimentsWorkload is the experiments workload: the transient stream
// (scoped Fig10 runs and hybrid SoC sweeps) interleaved with the paper's
// validation figures. Each op is an op of one of the two streams, which
// keep their own inputs, checks and layer accounting.
type experimentsWorkload struct {
	transient *transientSweep
	paper     *paperValidation
	isPaper   []bool // which stream op i comes from
	sub       []int  // op i's index in its stream
}

func newExperiments(seed int64) (*experimentsWorkload, error) {
	t, err := newTransientSweep(seed)
	if err != nil {
		return nil, err
	}
	w := &experimentsWorkload{transient: t, paper: newPaperValidation(seed, paperGoldens)}
	rng := rand.New(rand.NewSource(seedFor(seed, "experiments")))
	w.isPaper = dealt(rng, experimentsBlock, streamLen)
	var next [2]int
	for _, p := range w.isPaper {
		k := 0
		if p {
			k = 1
		}
		w.sub = append(w.sub, next[k])
		next[k]++
	}
	return w, nil
}

func (w *experimentsWorkload) digest() string {
	return digestOf([]string{w.transient.digest(), w.paper.digest(), digestOf(w.isPaper)})
}

func (w *experimentsWorkload) warmUp() error {
	if err := w.transient.warmUp(); err != nil {
		return err
	}
	return w.paper.warmUp()
}

// stream returns the stream op i belongs to and its index there.
func (w *experimentsWorkload) stream(i int) (closedOps, int) {
	j := i % len(w.isPaper)
	if w.isPaper[j] {
		return w.paper, w.sub[j]
	}
	return w.transient, w.sub[j]
}

func (w *experimentsWorkload) do(i int, tr *tracer) (any, error) {
	s, j := w.stream(i)
	return s.do(j, tr)
}

func (w *experimentsWorkload) check(i int, out any, traced bool) error {
	s, j := w.stream(i)
	return s.check(j, out, traced)
}

func (w *experimentsWorkload) layers() map[string]float64 {
	m := w.transient.layers()
	for k, v := range w.paper.layers() {
		m[k] = v
	}
	return m
}

package soc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RailKind classifies how a domain's rail is regulated.
type RailKind int

const (
	// OffChipVRM leaves the domain on the board regulator: conversion at
	// the board, the PDN carrying the domain current at core voltage.
	OffChipVRM RailKind = iota
	// CentralizedIVR gives the domain one on-chip SC converter.
	CentralizedIVR
	// DistributedIVR splits the domain's converter across Rail.N
	// instances, shrinking the residual grid impedance per block.
	DistributedIVR
	// DigitalLDO regulates the domain with a centralized digital LDO from
	// a board-supplied headroom rail.
	DigitalLDO
)

// Rail is one delivery style a domain can be assigned.
type Rail struct {
	Kind RailKind
	// N is the instance count for DistributedIVR (>= 2); zero otherwise.
	N int
}

// Validate checks the rail.
func (r Rail) Validate() error {
	switch r.Kind {
	case OffChipVRM, CentralizedIVR, DigitalLDO:
		if r.N != 0 {
			return fmt.Errorf("soc: rail %v takes no instance count (got %d)", r.Kind, r.N)
		}
		return nil
	case DistributedIVR:
		if r.N < 2 {
			return fmt.Errorf("soc: distributed IVR rail needs N >= 2 (got %d)", r.N)
		}
		return nil
	default:
		return fmt.Errorf("soc: unknown rail kind %d", int(r.Kind))
	}
}

// String renders the compact wire/CLI token: "vrm", "ivr", "ivrN", "ldo".
func (r Rail) String() string {
	switch r.Kind {
	case OffChipVRM:
		return "vrm"
	case CentralizedIVR:
		return "ivr"
	case DistributedIVR:
		return "ivr" + strconv.Itoa(r.N)
	case DigitalLDO:
		return "ldo"
	}
	return fmt.Sprintf("rail(%d)", int(r.Kind))
}

// ParseRail parses the compact token form String emits.
func ParseRail(s string) (Rail, error) {
	switch t := strings.ToLower(strings.TrimSpace(s)); {
	case t == "vrm" || t == "off-chip" || t == "offchip":
		return Rail{Kind: OffChipVRM}, nil
	case t == "ivr" || t == "ivr1":
		return Rail{Kind: CentralizedIVR}, nil
	case t == "ldo":
		return Rail{Kind: DigitalLDO}, nil
	case strings.HasPrefix(t, "ivr"):
		n, err := strconv.Atoi(t[len("ivr"):])
		if err != nil || n < 2 {
			return Rail{}, fmt.Errorf("soc: bad rail token %q (want vrm|ivr|ivrN|ldo)", s)
		}
		return Rail{Kind: DistributedIVR, N: n}, nil
	default:
		return Rail{}, fmt.Errorf("soc: bad rail token %q (want vrm|ivr|ivrN|ldo)", s)
	}
}

// DefaultRails is the menu a sweep offers each domain when SweepSpec.Rails
// is empty: off-chip VRM, centralized IVR, 2- and 4-way distributed IVRs,
// and a digital LDO. Distribution counts that do not divide a domain's
// core count are infeasible for that domain and assignments using them are
// rejected, not errored.
func DefaultRails() []Rail {
	return []Rail{
		{Kind: OffChipVRM},
		{Kind: CentralizedIVR},
		{Kind: DistributedIVR, N: 2},
		{Kind: DistributedIVR, N: 4},
		{Kind: DigitalLDO},
	}
}

// railLess is the canonical rail order: OffChipVRM < CentralizedIVR <
// DistributedIVR (ascending N) < DigitalLDO. Assignment enumeration and
// candidate keys follow it, so ranked output is independent of the order a
// caller listed the rails in.
func railLess(a, b Rail) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.N < b.N
}

// NormalizeRails validates, canonically sorts, and dedupes a rail menu;
// an empty menu yields DefaultRails. Sweep applies it to SweepSpec.Rails,
// and the serving layer uses it to give semantically identical menus one
// cache key.
func NormalizeRails(rails []Rail) ([]Rail, error) {
	if len(rails) == 0 {
		rails = DefaultRails()
	}
	out := make([]Rail, 0, len(rails))
	for _, r := range rails {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return railLess(out[i], out[j]) })
	dedup := out[:0]
	for i, r := range out {
		if i == 0 || r != out[i-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup, nil
}

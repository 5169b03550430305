package analysis

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		DeadExport,
		DroppedErr,
		FloatCmp,
		LockSafe,
		NonFinite,
		PowSquare,
		UnitFlow,
		UnitSuffix,
		WGSafe,
	}
}

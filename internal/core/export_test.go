package core

// WithOracles returns a copy of sg running the named oracles in place of
// the fast kernels: the linear bound scan at every branch-and-bound pick
// and/or the scalar hillClimbTabs for every climb. Test-only — no option
// reaches these paths.
func (sg *SynthGrid) WithOracles(linearPick, scalarClimb bool) *SynthGrid {
	c := *sg
	c.linearPick, c.scalarClimb = linearPick, scalarClimb
	return &c
}

// WithRefineTrace returns a copy of sg that appends the index of every
// screening block it refines to *seq, in refinement order.
func (sg *SynthGrid) WithRefineTrace(seq *[]int) *SynthGrid {
	c := *sg
	c.onRefine = func(block int) { *seq = append(*seq, block) }
	return &c
}

package geom

// Reach returns the box outside which no wall can cross the segment from
// a to b, for the external tests.
func (f *Floorplan) Reach(a, b Point) (lo, hi Point) {
	l := f.newLeg(a, b, -1, -1)
	return l.lo, l.hi
}

package trace

// HoldSamples returns how many hold-time samples c has recorded, for the
// exactness tests of the external trace_test package.
func HoldSamples(c *Class) int64 { return c.hold.Count() }

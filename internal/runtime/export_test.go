package runtime

// MaxClockSkips exposes the tick gate's skip bound to the tests.
const MaxClockSkips = maxClockSkips

// Taken is the number of ticks n has taken.
func (n *Node) Taken() int64 { return n.taken.Load() }

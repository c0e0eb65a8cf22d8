package runtime

// MaxClockSkips exposes the tick gate's skip bound to the tests.
const MaxClockSkips = maxClockSkips

// Taken is the number of ticks n has taken.
func (n *Node) Taken() int64 { return n.taken.Load() }

// Drive makes c's group driven whatever the process holds: what Start does
// once the process has GOMAXPROCS groups, and at least two.
func (c *Cluster) Drive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.driveLocked()
}

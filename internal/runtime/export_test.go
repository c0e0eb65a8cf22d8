package runtime

// MaxClockSkips exposes the tick gate's skip bound to the tests.
const MaxClockSkips = maxClockSkips

// Taken is the number of ticks n has taken.
func (n *Node) Taken() int64 { return n.taken.Load() }

// Drive makes c's group driven before it starts, whatever it is started
// with: what StartGroups does for GOMAXPROCS groups, and at least two.
func (c *Cluster) Drive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.driveLocked()
}

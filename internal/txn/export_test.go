package txn

// Retained reports what retirement leaves: the members and batches the
// straggler guard holds, and the per-member index's entries (0 while
// nothing has asked).
func (m *Manager) Retained() (guardMembers, guardBatches, indexed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := &m.retired
	return g.curSize + g.prevSize, len(g.cur) + len(g.prev), len(m.index)
}

// Ticked reports how many machines Step has advanced so far, over all ticks.
func (m *Manager) Ticked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticked
}

package txn

// TombstoneSizes reports what retirement feeds: the members index, the
// members the tombstones hold, and the tombstones.
func (m *Manager) TombstoneSizes() (members, retired, retiredBatches int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ts := range m.retiredBatches {
		retired += len(ts.txns)
	}
	return len(m.members), retired, len(m.retiredBatches)
}

// Ticked reports how many machines Step has advanced so far, over all ticks.
func (m *Manager) Ticked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticked
}

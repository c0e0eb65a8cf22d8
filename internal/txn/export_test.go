package txn

// TombstoneSizes reports the sizes of the three maps retirement feeds.
func (m *Manager) TombstoneSizes() (members, retired, retiredBatches int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members), len(m.retired), len(m.retiredBatches)
}

// Ticked reports how many machines Step has advanced so far, over all ticks.
func (m *Manager) Ticked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticked
}

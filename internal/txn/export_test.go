package txn

// TombstoneSizes reports the sizes of the three maps retirement feeds.
func (m *Manager) TombstoneSizes() (members, retired, retiredBatches int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members), len(m.retired), len(m.retiredBatches)
}

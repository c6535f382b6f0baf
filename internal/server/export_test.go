package server

// pendingGroups returns the number of groups in the backend's pending
// map, empty or not: the count a forgotten client must leave at zero.
func (b *Backend) pendingGroups() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

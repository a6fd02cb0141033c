package mbus

// Awaiters reports how many Await calls have taken hold of call id's record
// (0 when the table has no record of it).
func (t *CallTable) Awaiters(id uint64) int {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.calls[id]; ok {
		return e.awaiters
	}
	return 0
}

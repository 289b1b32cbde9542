// Package lock is a shim with no behaviour. The paper's §3.4 S/X page-lock
// protocol it once implemented is gone: the VB-tree serialises its writers
// under its own write lock and readers query snapshots. NewManager remains
// only because the benchmark harness still sets vbtree.Config.Locks, which
// the tree ignores.
package lock

import "time"

// Manager is an empty lock table.
type Manager struct{}

// NewManager returns an empty Manager; the timeout is ignored.
func NewManager(time.Duration) *Manager { return &Manager{} }

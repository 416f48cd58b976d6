package abslock

import (
	"commlat/internal/core"
	"commlat/internal/engine"
)

// MemorySpec is §4.3's memory-level point FC as a specification: cells
// read and written by id. Reads commute, and a write commutes with any
// access to another cell — what an object-granularity transactional
// memory with visible readers enforces.
func MemorySpec() *core.Spec {
	return core.ReadWrite(&core.ADTSig{Name: "memory", Methods: []core.MethodSig{
		{Name: "read", Params: []string{"o"}}, {Name: "write", Params: []string{"o"}},
	}}, "read")
}

// memoryScheme is MemorySpec's reduced scheme: a read and a write mode
// on the cell, read compatible with read alone.
var memoryScheme = Shipped(MemorySpec)

// Memory is memory-level conflict detection: MemorySpec's abstract locks
// on integer cell ids, held to transaction end. The memory-level
// variants (uf-ml, kd-ml, Table 2's FC row) name their objects by id.
type Memory struct {
	mgr         *Manager
	read, write *Method
}

// NewMemory creates a memory-level detector with every cell free.
func NewMemory() *Memory {
	mgr := NewManager(memoryScheme(), nil)
	return &Memory{mgr: mgr, read: mgr.Method("read"), write: mgr.Method("write")}
}

// Read acquires cell id in read mode for tx: it conflicts with another
// live transaction's write of the cell.
func (m *Memory) Read(tx *engine.Tx, id int64) error {
	return m.mgr.Acquire(tx, m.read, core.VInt(id))
}

// Write acquires cell id in write mode for tx: it conflicts with another
// live transaction's read or write of the cell.
func (m *Memory) Write(tx *engine.Tx, id int64) error {
	return m.mgr.Acquire(tx, m.write, core.VInt(id))
}

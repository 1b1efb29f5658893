package txn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"stagedb/internal/storage"
)

// CheckpointState is the engine snapshot a RecCheckpoint record carries in
// its After image: enough to rebuild the catalog, every heap's page list,
// the data file's allocation state, and the undo chains of transactions
// still in flight (a fuzzy checkpoint — DML is quiesced only long enough to
// take the snapshot, not until the active txns finish). The record heads
// the rotated log, so the chains are the only copy of those transactions'
// older records.
type CheckpointState struct {
	NextTxn   uint64
	NextPage  uint32
	FreePages []uint32
	Tables    []CheckpointTable
	Active    []CheckpointTxn
}

// CheckpointTable is one table's recoverable description.
type CheckpointTable struct {
	Name    string
	Columns []CheckpointColumn
	Pages   []uint32
	Indexes []CheckpointIndex
}

// CheckpointColumn mirrors catalog.Column without importing the catalog
// (txn sits below it in the dependency order).
type CheckpointColumn struct {
	Name       string
	Type       int
	PrimaryKey bool
}

// CheckpointIndex is one secondary index's recoverable description; index
// contents are rebuilt from the heap after redo/undo.
type CheckpointIndex struct {
	Name   string
	Column string
	Unique bool
}

// CheckpointTxn is an in-flight transaction's undo chain at checkpoint
// time. Recovery seeds its loser table with these, so records older than
// the checkpoint still get undone.
type CheckpointTxn struct {
	ID  uint64
	Ops []CheckpointOp
}

// CheckpointOp is one logged data operation (gob-friendly Record subset).
type CheckpointOp struct {
	LSN    uint64
	Kind   uint8
	Table  string
	Page   uint32
	Slot   uint16
	Before []byte
	After  []byte
}

// ToOp converts a Record for checkpoint embedding.
func ToOp(rec Record) CheckpointOp {
	return CheckpointOp{
		LSN:    rec.LSN,
		Kind:   uint8(rec.Kind),
		Table:  rec.Table,
		Page:   uint32(rec.RID.Page),
		Slot:   rec.RID.Slot,
		Before: rec.Before,
		After:  rec.After,
	}
}

// ToRecord converts a checkpointed op back, reattaching the txn id.
func (op CheckpointOp) ToRecord(id ID) Record {
	return Record{
		LSN:    op.LSN,
		Txn:    id,
		Kind:   RecordKind(op.Kind),
		Table:  op.Table,
		RID:    storage.RID{Page: storage.PageID(op.Page), Slot: op.Slot},
		Before: op.Before,
		After:  op.After,
	}
}

// EncodeCheckpoint serializes the state for a RecCheckpoint's After image.
func EncodeCheckpoint(st *CheckpointState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("txn: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses a RecCheckpoint's After image.
func DecodeCheckpoint(b []byte) (*CheckpointState, error) {
	var st CheckpointState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return nil, fmt.Errorf("txn: decode checkpoint: %w", err)
	}
	return &st, nil
}

// EncodeTable serializes one table description (RecCreateTable payload).
func EncodeTable(t *CheckpointTable) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(t); err != nil {
		return nil, fmt.Errorf("txn: encode table: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTable parses a RecCreateTable payload.
func DecodeTable(b []byte) (*CheckpointTable, error) {
	var t CheckpointTable
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&t); err != nil {
		return nil, fmt.Errorf("txn: decode table: %w", err)
	}
	return &t, nil
}

// EncodeIndex serializes one index description (RecCreateIndex payload).
func EncodeIndex(ix *CheckpointIndex) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ix); err != nil {
		return nil, fmt.Errorf("txn: encode index: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeIndex parses a RecCreateIndex payload.
func DecodeIndex(b []byte) (*CheckpointIndex, error) {
	var ix CheckpointIndex
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ix); err != nil {
		return nil, fmt.Errorf("txn: decode index: %w", err)
	}
	return &ix, nil
}

// Package wal implements the durability substrate of the simulated
// cluster: a write-ahead journal of length-prefixed, CRC32C-framed
// records, checkpoint snapshots written atomically, and the recovery
// scan that yields a consistent operation prefix from snapshot +
// journal tail. It substitutes for what WiredTiger gives the paper's
// MongoDB deployment for free — journaled writes and periodic
// checkpoints, so a loaded cluster survives process restarts.
//
// The package is deliberately ignorant of what the operations mean: a
// record is (LSN, opcode, body bytes). The sharding layer defines the
// opcodes, encodes cluster state into snapshot payloads, and replays
// records through its normal code paths; wal owns only the on-disk
// format and its failure semantics:
//
//   - Every frame is covered by a CRC32C (Castagnoli) checksum.
//     Recovery keeps the journal up to the first torn or corrupt
//     frame — a partial tail write never corrupts the prefix.
//   - A store directory holds one journal file. Records carry a
//     strictly increasing LSN, consecutive in file order; recovery
//     keeps the longest consecutive run and treats the first record
//     that breaks it as the start of a corrupt tail.
//   - Snapshots are written to a temporary name and renamed into
//     place, so a crash mid-checkpoint leaves the previous snapshot
//     intact; each snapshot records the LSN it covers, and recovery
//     skips journal records at or below it (idempotent replay after a
//     mid-checkpoint crash).
//
// All file access goes through the FS interface so tests can inject
// faults (FaultFS): torn tails, short writes, failed fsyncs and bit
// flips.
package wal

import "errors"

// ErrCrashed is returned by FaultFS operations after the simulated
// crash point has been reached.
var ErrCrashed = errors.New("wal: simulated crash")

// Record is one journaled operation: an opaque body tagged with the
// caller's opcode and a global sequence number.
type Record struct {
	LSN  uint64
	Op   uint8
	Body []byte
}

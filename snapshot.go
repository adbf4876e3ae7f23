package ctxmatch

import (
	"io"
	"time"

	"ctxmatch/internal/core"
	"ctxmatch/internal/snapshot"
)

// Structured errors of the snapshot codec. Every LoadTarget failure
// wraps exactly one of them; test with errors.Is.
var (
	// ErrSnapshotFormat reports bytes that are not a snapshot, or a
	// structurally corrupt one.
	ErrSnapshotFormat = snapshot.ErrFormat
	// ErrSnapshotVersion reports a snapshot written by a format version
	// this build does not read.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotChecksum reports a snapshot section whose payload fails
	// its CRC32.
	ErrSnapshotChecksum = snapshot.ErrChecksum
	// ErrSnapshotTruncated reports a snapshot shorter than its header
	// declares.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotUnsupported reports content the snapshot format cannot
	// carry — a custom matcher type, a view table — or does not know.
	ErrSnapshotUnsupported = snapshot.ErrUnsupported
)

// WriteSnapshot serializes the prepared handle — the target schema with
// its sample instance, the matching configuration, and the artifacts a
// load cannot cheaply recompute (frozen gram dictionary, column feature
// vectors with each string column's gram merge order, candidate index
// postings) — into a versioned binary snapshot, returning the bytes
// written. The target classifiers are not written: LoadTarget compiles
// them from the restored vectors. A restored Target produces
// byte-identical results to this one, and Update on it is as
// incremental as on this one.
//
// Snapshots are how prepared catalogs become build artifacts: prepare
// once (or build offline with the ctxmatch CLI), ship the snapshot to N
// serving nodes, and each restores in milliseconds instead of paying
// the column-scan cost of Prepare.
func (t *Target) WriteSnapshot(w io.Writer) (int64, error) {
	return t.prep.WriteSnapshot(w)
}

// LoadTarget restores a prepared-target handle from a snapshot written
// by WriteSnapshot. No column is rescanned: the dictionary, vectors and
// index postings are reconstructed by reference to one contiguous
// buffer, and the target classifiers compile from those vectors and the
// rows as a prepare would compile them. A snapshot in the older format
// 1 is re-prepared from the catalog and options it carries, at the cost
// of one Prepare. The handle matches bit-identically to the one that
// wrote the snapshot, and carries its own Matcher configured with the
// snapshot's options (Target.MatchTarget trains source-side artifacts
// through it on demand, exactly as a fresh handle would).
//
// Arbitrary or corrupt input fails with an error wrapping one of the
// ErrSnapshot* sentinels — never a panic. Stats on the restored handle
// reports SnapshotBytes and RestoredFromSnapshot.
func LoadTarget(r io.Reader) (*Target, error) {
	start := time.Now()
	pt, err := core.LoadPreparedTarget(r)
	if err != nil {
		return nil, err
	}
	m := &Matcher{opt: pt.Options(), cache: core.NewTargetCache()}
	return &Target{m: m, prep: pt, schema: pt.Target(), prepTime: time.Since(start)}, nil
}

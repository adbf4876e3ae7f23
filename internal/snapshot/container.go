// Package snapshot implements the versioned binary persistence format
// for prepared target catalogs: everything a core.PreparedTarget pins —
// the sample schema, the frozen gram dictionary, the precomputed column
// feature layer, the inverted gram-ID candidate index and the frozen
// per-domain classifiers — serialized so a serving node can restore a
// catalog in milliseconds instead of re-preparing it.
//
// The container is a magic + format version header followed by a
// section table (id, CRC32, offset, length per section) and the section
// payloads at 8-byte-aligned offsets. Numeric bulk data — posting
// lists, log-likelihood tables, column vectors — is laid out as flat
// little-endian arrays, so the loader reconstructs the hot slices by
// aliasing one contiguous buffer instead of decoding element by
// element. The design follows the same versioned-envelope discipline as
// the Result JSON wire format (see encode.go at the repository root):
// decoders reject unknown versions, truncation and corrupted checksums
// with structured errors rather than guessing.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Structured decode errors; test with errors.Is. Every failure of Read
// wraps exactly one of these.
var (
	// ErrFormat reports bytes that are not a snapshot container, or a
	// structurally inconsistent one (bad magic, overlapping sections,
	// malformed payloads).
	ErrFormat = errors.New("snapshot: invalid format")
	// ErrVersion reports a container written by an unknown format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum reports a section whose payload does not match its
	// recorded CRC32.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrTruncated reports a container shorter than its header and
	// section table declare.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrUnsupported reports content the format cannot carry (for the
	// writer: e.g. a custom matcher type or a view table) or content a
	// reader of this version does not know.
	ErrUnsupported = errors.New("snapshot: unsupported content")
)

func errFormatf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

func errTruncatedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTruncated, fmt.Sprintf(format, args...))
}

func errUnsupportedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// magic identifies a prepared-catalog snapshot container.
var magic = [6]byte{'C', 'T', 'X', 'S', 'N', 'P'}

// Version is the current snapshot format version. Readers reject any
// other value with ErrVersion; bump it on any incompatible layout
// change.
const Version = 1

// Section ids of format version 1.
const (
	secMeta        uint32 = 1 // options + engine configuration
	secSchema      uint32 = 2 // target schema with its sample instance
	secDict        uint32 = 3 // frozen gram dictionary, grams in ID order
	secFeatures    uint32 = 4 // precomputed column feature layer
	secIndex       uint32 = 5 // inverted gram-ID candidate index
	secClassifiers uint32 = 6 // frozen per-domain target classifiers
)

// headerSize is the fixed prefix: magic, u16 version, u32 section
// count, u32 reserved padding — 16 bytes, keeping the section table
// (24-byte entries) and therefore every payload 8-byte aligned.
const headerSize = 16

// tableEntrySize is one section-table entry: id u32, crc u32,
// offset u64, length u64.
const tableEntrySize = 24

// maxSections bounds the section count a reader will allocate a table
// for; version 1 writes exactly 5 or 6.
const maxSections = 64

type section struct {
	id      uint32
	payload *enc
}

// writer assembles a container from section payloads.
type writer struct {
	sections []section
}

// section opens a new section whose payload the returned encoder
// accumulates.
func (w *writer) section(id uint32) *enc {
	e := &enc{}
	w.sections = append(w.sections, section{id: id, payload: e})
	return e
}

// writeTo lays the container out and writes it straight to out: header
// and section table, then every payload's chunks at the next
// 8-byte-aligned offset. No write is empty, so each write call carries
// bytes.
func (w *writer) writeTo(out io.Writer) (int64, error) {
	var head enc
	head.buf = append(head.buf, magic[:]...)
	head.buf = append(head.buf, byte(Version), byte(Version>>8))
	head.u32(uint32(len(w.sections)))
	head.u32(0) // reserved

	var zeros [8]byte
	parts := [][]byte{nil} // the header and table, once complete
	offset := uint64(headerSize + tableEntrySize*len(w.sections))
	for _, s := range w.sections {
		if pad := (8 - offset%8) % 8; pad > 0 {
			parts = append(parts, zeros[:pad])
			offset += pad
		}
		p := s.payload
		p.seal()
		var crc uint32
		for _, c := range p.chunks {
			crc = crc32.Update(crc, crc32.IEEETable, c)
		}
		head.u32(s.id)
		head.u32(crc)
		head.u64(offset)
		head.u64(uint64(p.sealed))
		offset += uint64(p.sealed)
		parts = append(parts, p.chunks...)
	}
	parts[0] = head.buf

	var written int64
	for _, p := range parts {
		n, err := out.Write(p)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// container is a parsed, checksum-verified snapshot buffer.
type container struct {
	sections map[uint32][]byte
	size     int
}

// parseContainer validates the header, the section table and every
// section CRC. The returned section payloads alias data.
func parseContainer(data []byte) (*container, error) {
	if len(data) < headerSize {
		return nil, errTruncatedf("%d bytes, header needs %d", len(data), headerSize)
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, errFormatf("bad magic %q", data[:len(magic)])
	}
	version := uint16(data[6]) | uint16(data[7])<<8
	if version != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads version %d", ErrVersion, version, Version)
	}
	d := &dec{buf: data, off: 8}
	count := int(d.u32())
	d.u32() // reserved
	if count < 0 || count > maxSections {
		return nil, errFormatf("section count %d outside [0, %d]", count, maxSections)
	}
	if len(data) < headerSize+tableEntrySize*count {
		return nil, errTruncatedf("%d bytes cannot hold a %d-section table", len(data), count)
	}
	c := &container{sections: make(map[uint32][]byte, count), size: len(data)}
	for i := 0; i < count; i++ {
		id := d.u32()
		crc := d.u32()
		off := d.u64()
		length := d.u64()
		if d.err() != nil {
			return nil, d.err()
		}
		end := off + length
		if end < off || end > uint64(len(data)) {
			return nil, errTruncatedf("section %d spans [%d, %d) beyond the %d-byte buffer", id, off, end, len(data))
		}
		if _, dup := c.sections[id]; dup {
			return nil, errFormatf("duplicate section id %d", id)
		}
		payload := data[off:end:end]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("%w: section %d crc32 %08x, recorded %08x", ErrChecksum, id, got, crc)
		}
		c.sections[id] = payload
	}
	return c, nil
}

// open returns a decoder over the named section's payload.
func (c *container) open(id uint32) (*dec, error) {
	payload, ok := c.sections[id]
	if !ok {
		return nil, errFormatf("missing section %d", id)
	}
	return &dec{buf: payload}, nil
}

// has reports whether the container carries the named section.
func (c *container) has(id uint32) bool {
	_, ok := c.sections[id]
	return ok
}

package service

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ctxmatch"
)

// corruptSuffix marks a quarantined snapshot. A quarantined file's
// name no longer matches the "*.snap" restore glob, so a corrupt
// snapshot is inspected or deleted by an operator, never re-loaded.
const corruptSuffix = ".corrupt"

// snapshotPath maps a registry name to its file inside dir. Names are
// URL-path-escaped so every name — including ones with separators or
// dots — maps to exactly one flat, safe filename, and PathUnescape
// recovers it losslessly on restore.
func snapshotPath(dir, name string) string {
	return filepath.Join(dir, url.PathEscape(name)+".snap")
}

// persistSnapshot streams the handle's snapshot into name's *.snap
// file.
func (s *Server) persistSnapshot(name string, t *ctxmatch.Target) error {
	return s.persist(name, func(w io.Writer) error {
		_, err := t.WriteSnapshot(w)
		return err
	})
}

// persistRaw replaces name's *.snap file with data.
func (s *Server) persistRaw(name string, data []byte) error {
	return s.persist(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// persist atomically and durably replaces name's *.snap file with what
// write produces. The bytes land in a temp file in the same directory,
// are fsynced there, and only then renamed over the target, followed by
// an fsync of the directory so the rename itself survives a crash. At
// every step a crash (or an injected fault) leaves the previous
// snapshot intact — a restore never sees a torn file.
func (s *Server) persist(name string, write func(io.Writer) error) error {
	dir := s.cfg.SnapshotDir
	path := snapshotPath(dir, name)
	tmp, err := s.fs.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("writing %q: %w", path, err)
	}
	tmpName := tmp.Name()
	err = write(tmp)
	if err == nil {
		// The data must be durable before the rename publishes it:
		// rename-before-fsync can surface a zero-length or torn file
		// under the final name after a crash.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmpName, path)
	}
	if err == nil {
		err = s.fs.SyncDir(dir)
	}
	if err != nil {
		_ = s.fs.Remove(tmpName)
		return fmt.Errorf("writing %q: %w", path, err)
	}
	s.metrics.snapshotPersists.Inc()
	return nil
}

// removeSnapshot deletes name's persisted snapshot and any quarantined
// *.corrupt sibling, so an explicit DELETE leaves nothing behind.
func (s *Server) removeSnapshot(name string) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	path := snapshotPath(s.cfg.SnapshotDir, name)
	if err := s.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.log.Warn("removing snapshot", "name", name, "err", err)
	}
	s.removeQuarantined(name)
}

// removeQuarantined deletes name's quarantined *.corrupt sibling, if
// any — called on DELETE and on LRU eviction so the snapshot directory
// cannot grow unboundedly with quarantine debris. The healthy *.snap
// file of an evicted catalog is intentionally kept (it warm-restores).
func (s *Server) removeQuarantined(name string) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	path := snapshotPath(s.cfg.SnapshotDir, name) + corruptSuffix
	if err := s.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.log.Warn("removing quarantined snapshot", "name", name, "err", err)
	}
}

// quarantine moves a snapshot that failed validation out of the
// restore set by renaming it to *.corrupt (replacing any previous
// quarantined sibling), so the warm restart proceeds and the bytes
// stay on disk for inspection.
func (s *Server) quarantine(path string, cause error) {
	dst := path + corruptSuffix
	if err := s.fs.Remove(dst); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.log.Warn("replacing quarantined snapshot", "path", dst, "err", err)
	}
	if err := s.fs.Rename(path, dst); err != nil {
		// Renaming failed (read-only dir, injected fault): the corrupt
		// file stays, but the glob will re-skip it next start.
		s.log.Warn("quarantining snapshot failed", "path", path, "err", err)
	}
	s.metrics.snapshotQuarantined.Inc()
	s.log.Warn("quarantined corrupt snapshot", "path", path, "to", dst, "err", cause)
}

// RestoreSnapshots installs every *.snap file in the configured
// snapshot directory into the registry, in name order, and returns how
// many catalogs it restored. A corrupt or unreadable file is counted,
// logged, and quarantined (renamed to *.corrupt) — one bad snapshot
// never blocks the rest of the warm restart, and a file that fails CRC
// or format validation is never installed. Stale temp files from
// interrupted writes (".snap-*") are cleaned up first. Call it before
// the listener opens so the first request already sees the persisted
// catalogs; with no snapshot directory it is a no-op.
func (s *Server) RestoreSnapshots() (int, error) {
	if s.cfg.SnapshotDir == "" {
		return 0, nil
	}
	// Temp litter from writes a crash interrupted: the rename never
	// happened, so the files are invisible to the glob below but would
	// otherwise accumulate forever.
	if stale, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, ".snap-*")); err == nil {
		for _, p := range stale {
			if err := s.fs.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				s.log.Warn("removing stale snapshot temp file", "path", p, "err", err)
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, "*.snap"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	restored := 0
	for _, path := range paths {
		name, err := url.PathUnescape(strings.TrimSuffix(filepath.Base(path), ".snap"))
		if err != nil {
			s.log.Warn("skipping snapshot with undecodable name", "path", path, "err", err)
			s.metrics.snapshotRestoreFailure.Inc()
			continue
		}
		f, err := s.fs.Open(path)
		if err != nil {
			s.log.Warn("skipping unreadable snapshot", "path", path, "err", err)
			s.metrics.snapshotRestoreFailure.Inc()
			continue
		}
		target, err := ctxmatch.LoadTarget(f)
		f.Close()
		if err != nil {
			s.metrics.snapshotRestoreFailure.Inc()
			s.quarantine(path, err)
			continue
		}
		info, _, _ := s.reg.Install(name, target)
		// The file on disk is exactly what we just loaded.
		s.reg.MarkClean(name, target)
		s.log.Info("catalog restored from snapshot", "name", name,
			"bytes", info.SnapshotBytes, "tables", info.Tables, "rows", info.Rows)
		restored++
		s.restored.Add(1)
		s.metrics.snapshotRestores.Inc()
	}
	return restored, nil
}

// FlushSnapshots persists every catalog whose snapshot is stale or was
// never written — the drain-time counterpart of the eager persist on
// upload. Failures are joined, not short-circuited, so one bad write
// still lets every other catalog reach disk. A no-op without a
// snapshot directory.
func (s *Server) FlushSnapshots() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	var errs []error
	for name, t := range s.reg.Dirty() {
		if err := s.persistSnapshot(name, t); err != nil {
			errs = append(errs, err)
			continue
		}
		s.reg.MarkClean(name, t)
	}
	return errors.Join(errs...)
}

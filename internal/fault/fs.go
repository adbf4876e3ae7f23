package fault

import (
	"os"
	"time"
)

// File is the subset of *os.File the snapshot store writes and reads
// through, so an injecting wrapper can interpose on every operation.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
	// Stat lets a reader size its buffer to the file before reading.
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface of the snapshot store. OS is the real
// implementation; Inject wraps any FS with fault injection at the
// points "fs.create", "fs.open", "fs.rename", "fs.remove",
// "fs.syncdir", and per-file "fs.read", "fs.write", "fs.sync".
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making previously-renamed entries
	// durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS backed by the os package.
type OS struct{}

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) Open(name string) (File, error) { return os.Open(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Inject wraps fs so every operation first consults reg. With a nil
// registry fs is returned unwrapped.
func Inject(fs FS, reg *Registry) FS {
	if reg == nil {
		return fs
	}
	return &injectFS{fs: fs, reg: reg}
}

type injectFS struct {
	fs  FS
	reg *Registry
}

func (f *injectFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.reg.Fail("fs.create"); err != nil {
		return nil, err
	}
	file, err := f.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: file, reg: f.reg}, nil
}

func (f *injectFS) Open(name string) (File, error) {
	if err := f.reg.Fail("fs.open"); err != nil {
		return nil, err
	}
	file, err := f.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: file, reg: f.reg}, nil
}

func (f *injectFS) Rename(oldpath, newpath string) error {
	if err := f.reg.Fail("fs.rename"); err != nil {
		return err
	}
	return f.fs.Rename(oldpath, newpath)
}

func (f *injectFS) Remove(name string) error {
	if err := f.reg.Fail("fs.remove"); err != nil {
		return err
	}
	return f.fs.Remove(name)
}

func (f *injectFS) SyncDir(dir string) error {
	if err := f.reg.Fail("fs.syncdir"); err != nil {
		return err
	}
	return f.fs.SyncDir(dir)
}

type injectFile struct {
	f   File
	reg *Registry
}

func (x *injectFile) Read(p []byte) (int, error) {
	pl, fires := x.reg.hit("fs.read")
	if pl.Latency > 0 {
		time.Sleep(pl.Latency)
	}
	if fires {
		// Short read: hand back a prefix, then the injected error.
		n := min(pl.ShortRead, len(p))
		m := 0
		if n > 0 {
			m, _ = x.f.Read(p[:n])
		}
		return m, pl.err("fs.read")
	}
	return x.f.Read(p)
}

func (x *injectFile) Write(p []byte) (int, error) {
	pl, fires := x.reg.hit("fs.write")
	if pl.Latency > 0 {
		time.Sleep(pl.Latency)
	}
	if fires {
		// Torn write: a prefix reaches the file before the error, as
		// a crash or full disk would leave it.
		n := min(pl.TornAfter, len(p))
		m := 0
		if n > 0 {
			m, _ = x.f.Write(p[:n])
		}
		return m, pl.err("fs.write")
	}
	return x.f.Write(p)
}

func (x *injectFile) Sync() error {
	if err := x.reg.Fail("fs.sync"); err != nil {
		return err
	}
	return x.f.Sync()
}

func (x *injectFile) Close() error { return x.f.Close() }

func (x *injectFile) Name() string { return x.f.Name() }

func (x *injectFile) Stat() (os.FileInfo, error) { return x.f.Stat() }

// Package disk is the one way internal/trace and internal/serve reach the
// file system: FS has the calls they make and OS makes them os calls. The two
// writers (trace.DirSink, serve.DiskStore) take an FS; readers use OS.
package disk

import (
	"os"
	"path/filepath"

	"repro/internal/recycle"
)

// FS is the file system as the trace and report stores use it. ReadDirNames
// lists in no particular order. ReadFile reads a file whole into buf[:0]: an
// empty buf is sized from the file, a used one grows only if the file
// outgrows it. Replace writes parts to a temporary file in name's directory
// and renames it over name. Nothing is synced: a call that returns has
// handed its bytes to the operating system, which promises nothing across a
// power loss.
type FS interface {
	MkdirAll(dir string) error
	ReadDirNames(dir string) ([]string, error)
	ReadFile(name string, buf []byte) ([]byte, error)
	WriteFile(name string, data []byte) error
	Replace(name string, parts ...[]byte) error
	Remove(name string) error
	Size(name string) (int64, error)
}

// OS is the operating system's FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDirNames(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

func (osFS) ReadFile(name string, buf []byte) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	if cap(buf) == 0 {
		if fi, err := f.Stat(); err == nil {
			buf = make([]byte, 0, fi.Size()+1) // +1: the read that finds EOF fits too
		}
	}
	return recycle.ReadAll(buf, f)
}

func (osFS) WriteFile(name string, data []byte) error { return os.WriteFile(name, data, 0o644) }

func (osFS) Replace(name string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op after the rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), name)
}

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

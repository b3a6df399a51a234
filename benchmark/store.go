package main

import (
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

const (
	shmDir     = "/dev/shm"
	tmpfsMagic = 0x01021994
)

// newStore creates the directory that holds every trace dir and server
// store of one run, and returns a function that removes it.
//
// It goes under /dev/shm when that is a writable tmpfs, else under
// .bench_build in the checkout. The preference is a measurement, not a
// taste: on the sandbox's ext4 the same `live` op took 104 ms in one run
// and 242 ms in the next (file creation waits on the journal), which no
// normalisation removes; on tmpfs it repeats. Either way the latencies are
// the sandbox's file system's, not a storage device's.
//
// The directory is also removed when the run is interrupted, so a run the
// driver kills leaves nothing in shared memory.
func newStore(root string) (dir string, remove func(), err error) {
	base := filepath.Join(root, ".bench_build")
	if isTmpfs(shmDir) {
		if dir, err = os.MkdirTemp(shmDir, "rlscope-bench-"); err == nil {
			base = ""
		}
	}
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", nil, err
		}
		if dir, err = os.MkdirTemp(base, "store-"); err != nil {
			return "", nil, err
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	return dir, func() {
		signal.Stop(sig)
		close(sig)
		os.RemoveAll(dir)
	}, nil
}

func isTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && int64(st.Type) == tmpfsMagic
}

//go:build linux

package persist

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// mapFile maps a file read-only. The mapping outlives the descriptor
// (closed before returning); the release function unmaps it. Pages
// fault in on first touch, which is what makes the version-2
// snapshot's catalogue walk lazy at the VM level too.
func mapFile(path string) ([]byte, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	size := int(info.Size())
	if size == 0 {
		return nil, func() {}, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: mmap: %w", err)
	}
	return data, func() { _ = syscall.Munmap(data) }, nil
}

// journalWindow is how much of the file one journal mapping preallocates.
const journalWindow = 64 << 10

var pageSize = int64(os.Getpagesize())

// journal is the current epoch's journal file. An append copies its
// frame into a shared mapping of a preallocated, page-aligned window of
// the file: the page cache holds it as after write(2), with no syscall.
type journal struct {
	f      *os.File
	win    []byte // mapped from file offset base (page-aligned); nil until an append
	base   int64
	off    int // end of the records in win
	closed bool
}

// openJournal opens the journal at path to append after its first valid
// bytes, cutting off whatever follows them.
func openJournal(path string, valid int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	base := valid &^ (pageSize - 1)
	return &journal{f: f, base: base, off: int(valid - base)}, nil
}

// append copies frame after the last record, mapping the next window
// first when this one cannot hold it. A fault on the mapping (a full
// disk under a sparse filesystem, a file truncated behind the store)
// is returned as an error instead of killing the process.
func (j *journal) append(frame []byte) (err error) {
	if j.off+len(frame) > len(j.win) {
		if err := j.remap(len(frame)); err != nil {
			return err
		}
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("persist: journal append faulted at %#x: the file was cut short or its disk is full", fault.Addr())
		}
	}()
	copy(j.win[j.off:], frame)
	j.off += len(frame)
	return nil
}

// remap maps the window from the page the records end in, allocating
// its blocks first (extending the file sparse where the filesystem
// cannot): journalWindow bytes, or more if need does not fit.
func (j *journal) remap(need int) error {
	if j.closed {
		return os.ErrClosed
	}
	if j.win != nil {
		if err := syscall.Munmap(j.win); err != nil {
			return fmt.Errorf("persist: journal: munmap: %w", err)
		}
		j.win = nil
	}
	end := j.base + int64(j.off)
	base := end &^ (pageSize - 1)
	size := (max(journalWindow, end-base+int64(need)) + pageSize - 1) &^ (pageSize - 1)
	fd := int(j.f.Fd())
	err := syscall.Fallocate(fd, 0, base, size)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		err = j.f.Truncate(base + size)
	}
	if err != nil {
		return fmt.Errorf("persist: journal: %w", err)
	}
	win, err := syscall.Mmap(fd, base, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("persist: journal: mmap: %w", err)
	}
	j.win, j.base, j.off = win, base, int(end-base)
	return nil
}

// Close cuts the file back to its records and closes it.
func (j *journal) Close() error {
	if j.closed {
		return os.ErrClosed
	}
	j.closed = true
	var err error
	if j.win != nil {
		err, j.win = syscall.Munmap(j.win), nil
	}
	return errors.Join(err, j.f.Truncate(j.base+int64(j.off)), j.f.Close())
}

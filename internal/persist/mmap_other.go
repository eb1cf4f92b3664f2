//go:build !linux

package persist

import (
	"io"
	"os"
)

// mapFile on platforms without the mmap fast path reads the file
// into memory; release is a no-op. The lazy catalogue walk still
// avoids materializing the node list eagerly.
func mapFile(path string) ([]byte, func(), error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return buf, func() {}, nil
}

// journal on platforms without the mapped tail appends each record with
// one write(2).
type journal struct {
	f *os.File
}

// openJournal opens the journal at path for appending after its first
// valid bytes, cutting off whatever follows them.
func openJournal(path string, valid int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &journal{f: f}, nil
}

// append writes frame after the last record.
func (j *journal) append(frame []byte) error {
	_, err := j.f.Write(frame)
	return err
}

// Close closes the file.
func (j *journal) Close() error { return j.f.Close() }

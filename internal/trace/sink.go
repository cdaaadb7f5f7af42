package trace

import "os"

// FileSink is the production Sink: an append-only trace file. Writes
// arrive from the Recorder as whole batches of framed records. One run's
// trace is one file — every reader (Runs, `calibre doctor replay`, `calibre
// trace`) reads one — so the file is never split or rotated.
type FileSink struct {
	f *os.File
}

// FileOptions tunes a FileSink.
type FileOptions struct {
	// Truncate starts the trace fresh instead of appending to an
	// existing file. Resumed runs leave it false so the kill-and-resume
	// story keeps one continuous trace per output path.
	Truncate bool
}

// OpenFile opens (creating if needed) the trace file at path.
func OpenFile(path string, opts FileOptions) (*FileSink, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if opts.Truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileSink{f: f}, nil
}

// Write appends one encoded batch. Recorder serializes calls, so FileSink
// needs no lock of its own.
func (s *FileSink) Write(p []byte) (int, error) { return s.f.Write(p) }

// Close syncs and closes the file.
func (s *FileSink) Close() error {
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

package main

import (
	"io"
	"os"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed, so the tests drive run(args) in-process and assert
// on its output without spawning subprocesses. fn's error is fatal to the
// test.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := capture(t, &os.Stdout, fn)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out)
	}
	return out
}

// capture runs fn with *f (os.Stdout or os.Stderr) redirected to a pipe and
// returns everything fn wrote there, and fn's error.
func capture(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	*f = w
	outCh := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		outCh <- string(buf)
	}()
	// Restore the file even if fn panics, so the test framework's own
	// failure output is not lost in the discarded pipe. The second Close
	// on the normal path is a harmless no-op error.
	defer func() {
		w.Close()
		*f = old
	}()
	runErr := fn()
	w.Close()
	return <-outCh, runErr
}

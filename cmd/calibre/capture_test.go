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
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	outCh := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		outCh <- string(buf)
	}()
	// Restore stdout even if fn panics, so the test framework's own
	// failure output is not lost in the discarded pipe. The second Close
	// on the normal path is a harmless no-op error.
	defer func() {
		w.Close()
		os.Stdout = old
	}()
	runErr := fn()
	w.Close()
	out := <-outCh
	if runErr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", runErr, out)
	}
	return out
}

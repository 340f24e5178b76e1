package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gotuplex/tuplex/internal/csvio"
)

// TestStreamChunkSizeClamp: a regular file smaller than the chunk size
// gets a buffer of its size plus one byte; a pipe, whose reported size
// of 0 bounds nothing, keeps the configured chunk size.
func TestStreamChunkSizeClamp(t *testing.T) {
	small := filepath.Join(t.TempDir(), "small.txt")
	if err := os.WriteFile(small, []byte("a\nbb\nccc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	pipe := fmt.Sprintf("/dev/fd/%d", r.Fd())
	if _, err := os.Stat(pipe); err != nil {
		t.Skipf("no /dev/fd on this system: %v", err)
	}

	eng := &engine{}
	for _, tc := range []struct {
		path string
		want int
	}{
		{small, 10},
		{pipe, csvio.DefaultChunkSize},
		{small + "," + pipe, csvio.DefaultChunkSize},
	} {
		ss, err := eng.openStreamSource(tc.path, 0, false, csvio.ChunkText)
		if err != nil {
			t.Fatal(err)
		}
		got := ss.prod.size
		ss.close()
		if got != tc.want {
			t.Errorf("%s: chunk size %d, want %d", tc.path, got, tc.want)
		}
	}
}

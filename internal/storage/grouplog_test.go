package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestGroupLogConcurrentWaiters hammers one GroupLog from many
// goroutines, each waiting for its own frame's durability, and then
// checks that every byte reached the file in enqueue order and that the
// flusher actually grouped frames (fewer fsync batches than frames).
func TestGroupLogConcurrentWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	f, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	g := NewGroupLog(f)

	const workers = 8
	const frames = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	var want int // total bytes written
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				frame := []byte(fmt.Sprintf("w%d.f%03d;", w, i))
				mu.Lock()
				// Write and Seq under one lock so the waited-for seq is
				// this frame's own enqueue position.
				if _, err := g.Write(frame); err != nil {
					mu.Unlock()
					t.Errorf("write: %v", err)
					return
				}
				seq := g.Seq()
				want += len(frame)
				mu.Unlock()
				if err := g.WaitSynced(seq); err != nil {
					t.Errorf("wait(%d): %v", seq, err)
					return
				}
				if got := g.Synced(); got < seq {
					t.Errorf("WaitSynced(%d) returned with Synced()=%d", seq, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(raw) != want {
		t.Fatalf("file holds %d bytes, wrote %d", len(raw), want)
	}
	// Every frame must appear exactly once (batches may interleave frames
	// from different workers, but never split or duplicate one).
	for w := 0; w < workers; w++ {
		for i := 0; i < frames; i++ {
			frame := []byte(fmt.Sprintf("w%d.f%03d;", w, i))
			if bytes.Count(raw, frame) != 1 {
				t.Fatalf("frame %s appears %d times", frame, bytes.Count(raw, frame))
			}
		}
	}
	nframes, syncs := g.SyncBatches()
	if nframes != workers*frames {
		t.Fatalf("batched %d frames, wrote %d", nframes, workers*frames)
	}
	if syncs == 0 || syncs > nframes {
		t.Fatalf("implausible sync count %d for %d frames", syncs, nframes)
	}
	t.Logf("group commit: %d frames retired in %d fsync batches", nframes, syncs)
}

// TestGroupLogClose verifies Close drains the buffer and that writes
// after Close fail with ErrGroupLogClosed.
func TestGroupLogClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.wal")
	f, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	g := NewGroupLog(f)
	if _, err := g.Write([]byte("tail")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(raw) != "tail" {
		t.Fatalf("close did not drain: file holds %q", raw)
	}
	if _, err := g.Write([]byte("x")); err != ErrGroupLogClosed {
		t.Fatalf("write after close: err=%v, want ErrGroupLogClosed", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestGroupLogUnforcedRidesNextFlush: an unforced frame asks for no
// flush and moves no Seq; the next Write's flush carries it to the file
// ahead of that Write's own frame.
func TestGroupLogUnforcedRidesNextFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	f, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	g := NewGroupLog(f)
	defer g.Close()

	if _, err := g.Write([]byte("a;")); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitSynced(g.Seq()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteUnforced([]byte("b;")); err != nil {
		t.Fatal(err)
	}
	if got := g.Seq(); got != 2 {
		t.Fatalf("Seq after an unforced frame = %d, want 2", got)
	}
	if _, syncs := g.SyncBatches(); syncs != 1 {
		t.Fatalf("syncs after an unforced frame = %d, want 1", syncs)
	}
	if _, err := g.Write([]byte("c;")); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitSynced(g.Seq()); err != nil {
		t.Fatal(err)
	}
	if frames, syncs := g.SyncBatches(); frames != 3 || syncs != 2 {
		t.Fatalf("frames/syncs = %d/%d, want 3/2", frames, syncs)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "a;b;c;" {
		t.Fatalf("file = %q (%v), want %q", got, err, "a;b;c;")
	}
}

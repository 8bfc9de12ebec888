package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func fixedLogger(buf *syncBuf, min Level) *Logger {
	l := NewLogger(buf, min)
	l.now = func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLoggerFormatAndLevels(t *testing.T) {
	var buf syncBuf
	l := fixedLogger(&buf, LevelInfo)
	l.Debug("hidden")
	l.Info("prepare: done", "segments", 5, "path", "a b")
	l.Error("boom", "err", "broken pipe")
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if want := `2026-08-05T12:00:00.000Z INFO prepare: done segments=5 path="a b"`; lines[0] != want {
		t.Errorf("line = %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "2026-08-05T12:00:00.000Z ERROR boom err=") {
		t.Errorf("error line = %q", lines[1])
	}
}

func TestLoggerOddKV(t *testing.T) {
	var buf syncBuf
	fixedLogger(&buf, LevelInfo).Info("x", "key")
	if got := buf.String(); !strings.Contains(got, "key=!MISSING") {
		t.Errorf("line = %q", got)
	}
}

// TestLoggerLevelThreshold: a logger emits the lines at or above its
// minimum level and no others, whatever that minimum.
func TestLoggerLevelThreshold(t *testing.T) {
	levels := []Level{LevelDebug, LevelInfo, LevelWarn, LevelError}
	for _, floor := range levels {
		var buf syncBuf
		l := fixedLogger(&buf, floor)
		l.Debug("d")
		l.Info("i")
		l.Warn("w")
		l.Error("e")
		var want []string
		for _, lv := range levels {
			if lv >= floor {
				want = append(want, "2026-08-05T12:00:00.000Z "+lv.String()+" "+strings.ToLower(lv.String()[:1]))
			}
		}
		if got := strings.Split(strings.TrimSpace(buf.String()), "\n"); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("minimum %v: lines %q, want %q", floor, got, want)
		}
	}
}

// TestLoggerConcurrent verifies whole lines are emitted atomically when
// many goroutines share one logger.
func TestLoggerConcurrent(t *testing.T) {
	var buf syncBuf
	l := fixedLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("tick", "g", g, "i", i)
				l.Info("tock", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1600 {
		t.Fatalf("got %d lines, want 1600", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "2026-08-05T12:00:00.000Z INFO t") {
			t.Fatalf("interleaved line: %q", ln)
		}
	}
}

package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int32

// Severities, ascending.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the canonical upper-case level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int32(l))
	}
}

// Logger is a leveled structured logger emitting logfmt-style lines:
//
//	2026-08-05T12:00:00.000Z INFO prepare: stage done stage=encode bytes=1234
//
// Key/value context is passed as alternating kv pairs. A nil *Logger is
// the no-op default: every method returns immediately, so a component
// logs through its Obs (Obs.Logger) and an Obs without a Log, or no Obs,
// disables logging.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	now func() time.Time
}

// NewLogger returns a logger writing lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lv Level, msg string, kv []any) {
	if l == nil || lv < l.min {
		return
	}
	var b strings.Builder
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteByte(' ')
	b.WriteString(lv.String())
	b.WriteByte(' ')
	b.WriteString(msg)
	appendKV(&b, kv)
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// appendKV renders alternating key/value pairs as " k=v". A trailing
// key without a value gets the marker value "!MISSING".
func appendKV(b *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprint(b, kv[i])
		b.WriteByte('=')
		if i+1 < len(kv) {
			writeValue(b, kv[i+1])
		} else {
			b.WriteString("!MISSING")
		}
	}
}

// writeValue quotes values containing spaces so lines stay parseable.
func writeValue(b *strings.Builder, v any) {
	s := fmt.Sprint(v)
	if strings.ContainsAny(s, " \t\n\"=") {
		fmt.Fprintf(b, "%q", s)
		return
	}
	b.WriteString(s)
}

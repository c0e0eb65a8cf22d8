// Package olog is a thin wrapper over log/slog for commitd operational
// logging. It exists for three reasons:
//
//   - one place to parse the -log-format / -log-level flags into a
//     configured slog handler (JSON or logfmt-style text);
//
//   - correlation-field helpers (Txn, Shard, Node) so every subsystem
//     stamps the same attribute names and a grep for `txn=chaos-7-12`
//     crosses service, shard, wal, and commitd lines;
//
//   - a nil-safe Logger so library code can carry an optional *Logger
//     and log unconditionally — a nil receiver drops the record, which
//     keeps tests and the simulator silent without plumbing io.Discard
//     everywhere.
//
// The wrapper deliberately exposes only the leveled message calls; code
// that needs the full slog API can reach it via Slog().
package olog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger wraps a slog.Logger. The zero value and nil are both usable
// and discard everything.
type Logger struct {
	s *slog.Logger
}

// Formats accepted by New.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// New builds a Logger writing to w in the given format ("text" or
// "json") at the given minimum level ("debug", "info", "warn",
// "error"). Unknown format or level values are an error so a typo'd
// flag fails fast at startup instead of silently logging nothing.
func New(w io.Writer, format, level string) (*Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case FormatText, "":
		h = slog.NewTextHandler(w, opts)
	case FormatJSON:
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("olog: unknown log format %q (want text or json)", format)
	}
	return &Logger{s: slog.New(h)}, nil
}

// ParseLevel maps a flag string to a slog.Level.
func ParseLevel(level string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("olog: unknown log level %q (want debug, info, warn, or error)", level)
}

// Slog exposes the underlying slog.Logger, or nil on a nop logger.
func (l *Logger) Slog() *slog.Logger {
	if l == nil {
		return nil
	}
	return l.s
}

// With returns a Logger that stamps the given attributes on every
// record. Safe on nil (returns nil).
func (l *Logger) With(args ...any) *Logger {
	if l == nil || l.s == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

// Correlation attribute helpers. Using these instead of raw key/value
// pairs keeps the attribute names identical across subsystems.

// Txn tags a record with the transaction id.
func Txn(id string) slog.Attr { return slog.String("txn", id) }

// Shard tags a record with the shard label.
func Shard(label string) slog.Attr { return slog.String("shard", label) }

// Node tags a record with a processor index.
func Node(n int) slog.Attr { return slog.Int("node", n) }

// Enabled reports whether a record at level would be logged, so a caller
// builds a costly record only when it would be. False on nil.
func (l *Logger) Enabled(level slog.Level) bool {
	return l != nil && l.s != nil && l.s.Enabled(context.Background(), level)
}

func (l *Logger) log(level slog.Level, msg string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	l.s.Log(context.Background(), level, msg, args...)
}

// Debug logs at debug level. Safe on nil.
func (l *Logger) Debug(msg string, args ...any) { l.log(slog.LevelDebug, msg, args...) }

// Info logs at info level. Safe on nil.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args...) }

// Warn logs at warn level. Safe on nil.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args...) }

// Error logs at error level. Safe on nil.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args...) }

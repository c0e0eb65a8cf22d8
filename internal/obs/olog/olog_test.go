package olog

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Debug("a")
	l.Info("b", "k", 1)
	l.Warn("c")
	l.Error("d", Txn("x"))
	if l.With("k", "v") != nil {
		t.Fatalf("With on nil should stay nil")
	}
	if l.Slog() != nil {
		t.Fatalf("Slog on nil should be nil")
	}
	if l.Enabled(slog.LevelError) {
		t.Fatalf("Enabled on nil should be false")
	}
}

func TestJSONFormatAndCorrelationFields(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("decided", Txn("t-1"), Shard("2"), Node(3), "outcome", "COMMIT")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "decided" || rec["txn"] != "t-1" || rec["shard"] != "2" {
		t.Fatalf("missing fields: %v", rec)
	}
	if n, ok := rec["node"].(float64); !ok || n != 3 {
		t.Fatalf("node field wrong: %v", rec["node"])
	}
	if rec["outcome"] != "COMMIT" {
		t.Fatalf("trailing kv missing: %v", rec)
	}
}

func TestTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "text", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept", Txn("t-9"))
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("info should be below warn threshold: %q", out)
	}
	if !strings.Contains(out, "kept") || !strings.Contains(out, "txn=t-9") {
		t.Fatalf("warn line missing: %q", out)
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "text", "error")
	if err != nil {
		t.Fatal(err)
	}
	if l.Enabled(slog.LevelWarn) || !l.Enabled(slog.LevelError) {
		t.Fatalf("Enabled disagrees with the error level")
	}
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	if buf.Len() != 0 {
		t.Fatalf("nothing should pass below error: %q", buf.String())
	}
	l.Error("boom")
	if !strings.Contains(buf.String(), "boom") {
		t.Fatalf("error line missing: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatalf("bad level should error")
	}
}

func TestBadFormatRejected(t *testing.T) {
	if _, err := New(&bytes.Buffer{}, "xml", "info"); err == nil {
		t.Fatalf("bad format should error")
	}
}

func TestWithAddsContext(t *testing.T) {
	var buf bytes.Buffer
	l, err := New(&buf, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	l2 := l.With("shard", "1")
	l2.Info("hello")
	if !strings.Contains(buf.String(), "shard=1") {
		t.Fatalf("With context missing: %q", buf.String())
	}
}

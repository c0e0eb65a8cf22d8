package tcommit_test

// The architecture guard: the "one of each" conditions the repository
// arrived at, as one table that `go test ./...` evaluates over the parsed
// source tree. A row is a rule (check), the reason it exists (why), and a
// small synthetic tree that breaks it (planted) together with the one
// violation that tree must yield (caught) — every rule is shown failing on
// every run. Rules look at syntax — an import, a selector, a receiver, a
// struct field — so a comment or a string neither trips nor hides one.
//
// To add a rule: append a row with its planted tree and bump wantRules.
// bench/ is frozen by BENCHMARK.json; a name kept only because bench/ still
// uses it is exempted by one line marked "ROADMAP 5f", and the bench/
// revision tightens the rule by deleting that line.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// file is one parsed Go file, by slash path from the tree's root.
type file struct {
	path string
	*ast.File
}

// tree is a source tree as the rules see it.
type tree struct {
	fset  *token.FileSet
	names []string          // every file and directory, sorted
	files []file            // the Go files among them, in the same order
	texts map[string]string // the other files a rule reads, by path
}

// newTree builds a tree from path -> source; a path that does not end in
// .go contributes its name, and its text if it has any.
func newTree(t *testing.T, src map[string]string) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet(), texts: make(map[string]string)}
	seen := make(map[string]bool)
	for name := range src {
		for p := name; p != "." && !seen[p]; p = path.Dir(p) {
			seen[p] = true
			tr.names = append(tr.names, p)
		}
	}
	sort.Strings(tr.names)
	for _, name := range tr.names {
		text, ok := src[name]
		switch {
		case ok && strings.HasSuffix(name, ".go"):
			f, err := parser.ParseFile(tr.fset, name, text, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			tr.files = append(tr.files, file{name, f})
		case text != "":
			tr.texts[name] = text
		}
	}
	return tr
}

// loadTree reads the tree rooted at dir, skipping dot-directories: the
// text of its Go files and of CHANGES.md, the names of the rest.
func loadTree(t *testing.T, dir string) *tree {
	t.Helper()
	src := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == dir {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		src[rel] = ""
		if !d.IsDir() && (strings.HasSuffix(rel, ".go") || rel == changes) {
			text, err := os.ReadFile(p)
			src[rel] = string(text)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return newTree(t, src)
}

// A scope says which files a rule reads. within and outside take files or
// directories.
type scope func(p string) bool

func nonTest(p string) bool { return !strings.HasSuffix(p, "_test.go") }

func within(roots ...string) scope {
	return func(p string) bool {
		for _, r := range roots {
			if p == r || strings.HasPrefix(p, r+"/") {
				return true
			}
		}
		return false
	}
}

func outside(roots ...string) scope {
	in := within(roots...)
	return func(p string) bool { return !in(p) }
}

// in returns the Go files every scope accepts.
func (tr *tree) in(scopes ...scope) []file {
	var out []file
next:
	for _, f := range tr.files {
		for _, s := range scopes {
			if !s(f.path) {
				continue next
			}
		}
		out = append(out, f)
	}
	return out
}

// at formats a violation found at pos.
func (tr *tree) at(pos token.Pos, msg string) string {
	where := tr.fset.Position(pos)
	return fmt.Sprintf("%s:%d: %s", where.Filename, where.Line, msg)
}

// importName is the name f knows the package at importPath by, "" if f
// does not import it.
func importName(f file, importPath string) string {
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == importPath {
			if im.Name != nil {
				return im.Name.Name
			}
			return path.Base(importPath)
		}
	}
	return ""
}

// importers reports each of files that imports importPath.
func (tr *tree) importers(importPath string, files []file) []string {
	var out []string
	for _, f := range files {
		if importName(f, importPath) != "" {
			out = append(out, tr.at(f.Package, "imports "+importPath))
		}
	}
	return out
}

// users reports every selector pkg.name in files — a call or any other
// mention — where pkg is whatever the file calls the package at importPath.
func (tr *tree) users(importPath, name string, files []file) []string {
	var out []string
	for _, f := range files {
		pkg := importName(f, importPath)
		if pkg == "" {
			continue
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					out = append(out, tr.at(sel.Pos(), "uses "+path.Base(importPath)+"."+name))
				}
			}
			return true
		})
	}
	return out
}

// withoutFunc returns files with every function or method named name left
// out, so a rule can exempt one declaration by name.
func withoutFunc(files []file, name string) []file {
	out := make([]file, len(files))
	for i, f := range files {
		g := *f.File
		g.Decls = nil
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); !ok || fn.Name.Name != name {
				g.Decls = append(g.Decls, d)
			}
		}
		out[i] = file{f.path, &g}
	}
	return out
}

// namers reports every identifier name in files, except the ones in decl.
func (tr *tree) namers(name string, files []file, decl map[*ast.Ident]bool) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f.File, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name && !decl[id] {
				out = append(out, tr.at(id.Pos(), "names "+name))
			}
			return true
		})
	}
	return out
}

// structFields returns the fields of every struct type named typeName
// declared in files.
func structFields(typeName string, files []file) []*ast.Field {
	var out []*ast.Field
	for _, f := range files {
		ast.Inspect(f.File, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == typeName {
				if st, ok := ts.Type.(*ast.StructType); ok {
					out = append(out, st.Fields.List...)
				}
			}
			return true
		})
	}
	return out
}

// servingOptions are the configuration structs of the serving stack: the
// package directory that declares each, and its name.
var servingOptions = []struct{ dir, name string }{
	{"internal/service", "Config"}, {"internal/shard", "Config"}, {"internal/txn", "Config"},
	{"internal/runtime", "NodeConfig"}, {"internal/runtime", "ClusterOptions"},
	{"internal/transport", "HubOptions"}, {"internal/wal", "SegmentedOptions"},
	{"internal/obs/watch", "Config"}, {"internal/obs/flight", "Config"},
}

// optionExempt names the serving options no program sets, each with its
// reason.
var optionExempt = map[string]string{
	"service.Config.BatchAgreement": "ROADMAP 5f: only bench/ sets it; it goes with the bench/ revision",
	"txn.Config.InboxShards":        "ROADMAP 5f: only bench/ sets it; it goes with the bench/ revision",
	"flight.Config.Clock":           "ROADMAP 8a: the test time seam, until one clock is injected everywhere",
}

// optionSetters returns the fields of the struct name, declared in the
// package at dir, that files set: as a key of a composite literal of that
// type, or by assigning to a selector of that name in a file outside dir
// that imports the package. A selector is matched by name alone; the
// declaring package's own assignments are its defaults, not callers.
func optionSetters(dir, name string, files []file) map[string]bool {
	set := make(map[string]bool)
	for _, f := range files {
		local := path.Dir(f.path) == dir
		pkg := importName(f, "repro/"+dir)
		if !local && pkg == "" {
			continue
		}
		// ofType reports whether a composite literal's type is the struct.
		ofType := func(e ast.Expr) bool {
			switch t := e.(type) {
			case *ast.Ident:
				return local && t.Name == name
			case *ast.SelectorExpr:
				x, ok := t.X.(*ast.Ident)
				return ok && x.Name == pkg && t.Sel.Name == name
			}
			return false
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !ofType(n.Type) {
					break
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && !local {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	return set
}

type rule struct {
	name, why string
	check     func(*tree) []string
	planted   map[string]string // a tree that breaks the rule
	caught    string            // the one violation it must yield
}

const wantRules = 26

// changes is the change log; its newest entry is bounded in lines and
// bytes.
const (
	changes         = "CHANGES.md"
	maxChangesLines = 16
	maxChangesBytes = 6 << 10
)

// newestEntry returns the newest CHANGES.md entry — from its "PR N:" line,
// N the largest, to the line before the next entry — with the 1-based line
// it starts on; ok is false when the text has no entry.
func newestEntry(text string) (entry string, line int, ok bool) {
	lines := strings.SplitAfter(text, "\n")
	isEntry := func(l string) (int, bool) {
		num, _, found := strings.Cut(strings.TrimPrefix(l, "PR "), ":")
		pr, err := strconv.Atoi(num)
		return pr, strings.HasPrefix(l, "PR ") && found && err == nil
	}
	newest, start := -1, -1
	for i, l := range lines {
		if pr, is := isEntry(l); is && pr > newest {
			newest, start = pr, i
		}
	}
	if start < 0 {
		return "", 0, false
	}
	end := start + 1
	for end < len(lines) {
		if _, is := isEntry(lines[end]); is {
			break
		}
		end++
	}
	return strings.Join(lines[start:end], ""), start + 1, true
}

var cmdMains = []string{"cmd/chaos", "cmd/commitd", "cmd/commitnode", "cmd/lab", "cmd/loadgen", "cmd/tracedump"}

var rules = []rule{
	// One framing.
	{
		name: "crc32 is imported by the segmented log alone",
		why: "Record framing, checksums and torn-tail replay live in internal/wal/segment.go and nowhere else; " +
			"a second non-test importer of hash/crc32 under internal/ means the framing forked.",
		check: func(tr *tree) []string {
			const framer = "internal/wal/segment.go"
			out := tr.importers("hash/crc32", tr.in(nonTest, within("internal"), outside(framer)))
			if len(tr.importers("hash/crc32", tr.in(within(framer)))) == 0 {
				out = append(out, framer+": does not import hash/crc32; if the framing moved, move this rule with it")
			}
			return out
		},
		planted: map[string]string{
			"internal/wal/segment.go": "package wal\nimport \"hash/crc32\"\nvar _ = crc32.IEEE",
			"internal/txn/txn.go":     "package txn\nimport \"hash/crc32\"\nvar _ = crc32.IEEE",
		},
		caught: "internal/txn/txn.go:1: imports hash/crc32",
	},

	// One commit path.
	{
		name: "the journal keeps one window and writes one record kind",
		why: "A decided batch is one journal record, and wal.DecisionWindow is the one retention window the journal, " +
			"the status table, the coordinator and the managers' tombstones read. Retire records (EncodeRetire, " +
			"DecisionLog.Retire), a second status horizon (service.Config.StatusRetention) and a settable append queue " +
			"(wal.SegmentedOptions.QueueDepth) were numbers kept in step by hand; they must not come back.",
		check: func(tr *tree) []string {
			files := tr.in()
			out := append(tr.namers("EncodeRetire", files, nil), tr.namers("StatusRetention", files, nil)...)
			for _, f := range files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || fn.Name.Name != "Retire" {
						continue
					}
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.Name == "DecisionLog" {
						out = append(out, tr.at(fn.Name.Pos(), "declares DecisionLog.Retire"))
					}
				}
			}
			for _, field := range structFields("SegmentedOptions", files) {
				for _, id := range field.Names {
					if id.Name == "QueueDepth" {
						out = append(out, tr.at(id.Pos(), "SegmentedOptions has a QueueDepth field"))
					}
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/wal/decision.go": "package wal\ntype DecisionLog struct{}\nfunc (d *DecisionLog) Retire(id string) error { return nil }\n" +
				"func (d *DecisionLog) Append(id string) error { return nil }",
			"internal/wal/segment.go":   "package wal\n// QueueDepth is a constant now.\ntype SegmentedOptions struct{ SegmentBytes int }",
			"internal/service/types.go": "package service\n// StatusRetention is gone.\ntype Config struct{ QueueDepth int }",
			"internal/txn/txn.go":       "package txn\ntype Manager struct{}\nfunc (m *Manager) Retire() {}",
		},
		caught: "internal/wal/decision.go:3: declares DecisionLog.Retire",
	},
	{
		name: "the serving packages never build the scalar machine",
		why: "A transaction is a batch of width 1. The scalar core.Commit machine is the simulator's oracle " +
			"and must not come back into internal/txn or internal/service, tests included.",
		check: func(tr *tree) []string {
			return tr.users("repro/internal/core", "New", tr.in(within("internal/txn", "internal/service")))
		},
		planted: map[string]string{
			"internal/txn/txn.go":   "package txn\nimport \"repro/internal/core\"\nvar _, _ = core.New(core.Config{}, 0, 1)",
			"internal/core/core.go": "package core\n// core.New( in a comment is not a use\nfunc f() { New() }",
		},
		caught: "internal/txn/txn.go:3: uses core.New",
	},
	{
		name: "nothing reads the BatchAgreement switch",
		why: "Every dispatch is a vector-agreement batch, so the switch selects nothing. Its ignored declaration " +
			"and the ignored commitd flag stay until bench/ stops naming them; nothing else may name it again.",
		check: func(tr *tree) []string {
			return tr.namers("BatchAgreement", tr.in(within("internal", "cmd"),
				// ROADMAP 5f: bench/ sets the field and passes the flag; this line goes with the bench/ revision.
				outside("internal/service/types.go", "cmd/commitd/main.go")), nil)
		},
		planted: map[string]string{
			"internal/service/types.go":   "package service\ntype Config struct{ BatchAgreement bool }",
			"internal/service/service.go": "package service\nfunc f(c Config) bool {\n\treturn c.BatchAgreement // \"BatchAgreement\"\n}",
		},
		caught: "internal/service/service.go:3: names BatchAgreement",
	},

	// One codec, one instrument, one handler, one push hook.
	{
		name: "gob is a test oracle only",
		why: "The binary codec is the one wire and journal format; encoding/gob survives in _test.go files only, " +
			"as that codec's differential oracle.",
		check: func(tr *tree) []string { return tr.importers("encoding/gob", tr.in(nonTest)) },
		planted: map[string]string{
			"internal/transport/tcp.go":        "package transport\nimport \"encoding/gob\"\nvar _ gob.Encoder",
			"internal/transport/codec_test.go": "package transport\nimport \"encoding/gob\"\nvar _ gob.Encoder",
		},
		caught: "internal/transport/tcp.go:1: imports encoding/gob",
	},
	{
		name: "bench/ is the instrument",
		why: "bench/ (TestSmokeEveryWorkload drives all four workloads against the real commitd) is the " +
			"instrument, not a BENCH_n.json snapshot written by cmd/benchjson; neither may come back.",
		check: func(tr *tree) []string {
			var out []string
			for _, p := range tr.names {
				if snapshot, _ := path.Match("BENCH_*.json", p); snapshot || p == "cmd/benchjson" {
					out = append(out, p+": retired instrument file")
				}
			}
			return out
		},
		planted: map[string]string{"bench/main.go": "package main", "BENCH_7.json": ""},
		caught:  "BENCH_7.json: retired instrument file",
	},
	{
		name: "POST /commit is registered once",
		why: "The sharded daemon's HTTP surface is service's handler over another Backend, not a mirror of it: " +
			"the route string appears in internal/service/http.go alone.",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.in(nonTest, within("internal"), outside("internal/service/http.go")) {
				ast.Inspect(f.File, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Value == `"POST /commit"` {
						out = append(out, tr.at(lit.Pos(), "registers "+lit.Value))
					}
					return true
				})
			}
			return out
		},
		planted: map[string]string{
			"internal/service/http.go": "package service\nfunc h(m mux) { m.HandleFunc(\"POST /commit\", nil) }",
			"internal/shard/http.go":   "package shard\n// POST /commit in a comment is not a route\nfunc h(m mux) { m.HandleFunc(\"POST /commit\", nil) }",
		},
		caught: `internal/shard/http.go:3: registers "POST /commit"`,
	},
	{
		name: "a manager outcome is pushed or pulled, not observed",
		why: "An outcome leaves txn.Manager through OnOutcome (push) or DecisionOf (pull). The Outcomes channel " +
			"and Watch observers had no reader and must not come back.",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.in(nonTest, within("internal/txn")) {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || (fn.Name.Name != "Outcomes" && fn.Name.Name != "Watch") {
						continue
					}
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.Name == "Manager" {
						out = append(out, tr.at(fn.Pos(), "declares Manager."+fn.Name.Name))
					}
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/txn/txn.go":   "package txn\ntype Manager struct{}\nfunc (m *Manager) Watch() {}",
			"internal/txn/other.go": "package txn\ntype watcher struct{}\nfunc (w *watcher) Watch() {}\nfunc Outcomes() {}",
		},
		caught: "internal/txn/txn.go:3: declares Manager.Watch",
	},

	// One lock, one host.
	{
		name: "the manager has one lock and no routing",
		why: "A manager is one state machine stepped by one goroutine under one mutex: no lock shards, " +
			"no hash routing, no sync.Map beside the mutex.",
		check: func(tr *tree) []string {
			files := tr.in(nonTest, within("internal/txn"))
			out := tr.users("sync", "Map", files)
			for _, f := range files {
				for _, im := range f.Imports {
					if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(path.Base(p), "hash") || strings.HasPrefix(p, "hash/") {
						out = append(out, tr.at(im.Pos(), "imports hashing package "+p))
					}
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/txn/txn.go":      "package txn\nimport \"sync\"\n// a sync.Map in a comment is not a use\nvar mu sync.Mutex\nvar members sync.Map",
			"internal/txn/txn_test.go": "package txn\nimport \"hash/fnv\"\nvar _ = fnv.New64a",
		},
		caught: "internal/txn/txn.go:5: uses sync.Map",
	},
	{
		name: "the service hosts its nodes through a cluster",
		why: "A service hosts its nodes through runtime.NewCluster over a transport set and never builds a " +
			"node itself, so there is one hosting arm whatever the backend.",
		check: func(tr *tree) []string {
			return tr.users("repro/internal/runtime", "NewNode", tr.in(within("internal/service")))
		},
		planted: map[string]string{
			"internal/service/service.go": "package service\nimport rt \"repro/internal/runtime\"\nvar _, _ = rt.NewNode(rt.NodeConfig{})",
			"internal/chaos/cluster.go":   "package chaos\nimport \"repro/internal/runtime\"\nvar _, _ = runtime.NewNode(runtime.NodeConfig{})",
		},
		caught: "internal/service/service.go:3: uses runtime.NewNode",
	},
	{
		name: "InboxShards is a declaration and nothing else",
		why: "The manager has one lock, so there are no inbox shards to count. The ignored field stays until " +
			"bench/ stops setting it; outside tests nothing else may name it.",
		check: func(tr *tree) []string {
			decl := make(map[*ast.Ident]bool)
			for _, field := range structFields("Config", tr.in(within("internal/txn/txn.go"))) {
				for _, id := range field.Names {
					decl[id] = true
				}
			}
			// ROADMAP 5f: bench/ still sets txn.Config.InboxShards; this exemption and the field go with the bench/ revision.
			return tr.namers("InboxShards", tr.in(nonTest, outside("bench")), decl)
		},
		planted: map[string]string{
			"internal/txn/txn.go":         "package txn\ntype Config struct {\n\t// InboxShards is ignored.\n\tInboxShards int\n}",
			"internal/service/service.go": "package service\nimport \"repro/internal/txn\"\nvar _ = txn.Config{InboxShards: 8}",
		},
		caught: "internal/service/service.go:3: names InboxShards",
	},
	{
		name: "the send-side fault wrapper stays gone",
		why: "Faults are injected in one place, HubOptions.Inject; transport.WithFaults wrapped the send side " +
			"with a second vocabulary and must not come back under that name anywhere.",
		check: func(tr *tree) []string { return tr.namers("WithFaults", tr.in(), nil) },
		planted: map[string]string{
			"internal/transport/faults.go": "package transport\nfunc WithFaults(t Transport) Transport { return t }",
			"internal/transport/hub.go":    "package transport\n// WithFaults is gone; see Inject.\nconst note = \"WithFaults\"",
		},
		caught: "internal/transport/faults.go:2: names WithFaults",
	},
	{
		name: "the places are the one bound on in-flight work",
		why: "At most N batches are unresolved, one place per coordinator, and each takes at most BatchMax members, " +
			"so the places bound dispatched members at N × BatchMax. A member-slot bound (MaxInFlight, commitd -inflight) " +
			"counted them a second time and wedged the service when BatchMax exceeded it; it must not come back.",
		check: func(tr *tree) []string {
			out := tr.namers("MaxInFlight", tr.in(), nil)
			for _, f := range tr.in(within("cmd/commitd")) {
				ast.Inspect(f.File, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						for _, arg := range call.Args {
							if lit, ok := arg.(*ast.BasicLit); ok && lit.Value == `"inflight"` {
								out = append(out, tr.at(lit.Pos(), "defines an inflight flag"))
							}
						}
					}
					return true
				})
			}
			return out
		},
		planted: map[string]string{
			"cmd/commitd/main.go": "package main\nimport \"flag\"\n// MaxInFlight and -inflight in a comment are not names\n" +
				"var _ = flag.Int(\"inflight\", 128, \"MaxInFlight\")",
			"internal/service/types.go": "package service\ntype Config struct{ BatchMax int }\nconst help = \"MaxInFlight\"",
		},
		caught: "cmd/commitd/main.go:4: defines an inflight flag",
	},

	// One log of changes, kept short.
	{
		name: "the newest CHANGES.md entry is short",
		why: "A change log entry says what changed and cites runs; it does not inline them. The newest " +
			"entry, from its \"PR N:\" line to the next entry, has at most 16 lines and 6 KB.",
		check: func(tr *tree) []string {
			entry, line, ok := newestEntry(tr.texts[changes])
			if !ok {
				return []string{changes + ": no \"PR N:\" entry"}
			}
			if lines := strings.Count(entry, "\n"); lines > maxChangesLines || len(entry) > maxChangesBytes {
				return []string{fmt.Sprintf("%s:%d: the newest entry has %d lines and %d bytes, want at most %d and %d",
					changes, line, lines, len(entry), maxChangesLines, maxChangesBytes)}
			}
			return nil
		},
		planted: map[string]string{
			changes: "PR 2: short\nPR 3: long\n" + strings.Repeat("  run\n", 16) + "PR 1: an older entry\n" + strings.Repeat("  run\n", 40),
		},
		caught: "CHANGES.md:2: the newest entry has 17 lines and 107 bytes, want at most 16 and 6144",
	},

	// One ring.
	{
		name: "the live stack records into one ring",
		why: "A protocol milestone is a KindEvent span in the one span ring (internal/obs/span), beside the stages, " +
			"rounds and links it explains. The tracer is kept only for bench/'s record-cost drivers: outside bench/ and " +
			"internal/obs no program file names obs.Tracer, obs.NewTracer or obs.Event.",
		check: func(tr *tree) []string {
			// ROADMAP 5f: bench/drivers.go still times obs.NewTracer and Tracer.Record; the bench/ revision deletes the tracer.
			files := tr.in(nonTest, outside("bench", "internal/obs"))
			var out []string
			for _, name := range []string{"Tracer", "NewTracer", "Event"} {
				out = append(out, tr.users("repro/internal/obs", name, files)...)
			}
			return out
		},
		planted: map[string]string{
			"internal/txn/txn.go":       "package txn\nimport \"repro/internal/obs\"\n// obs.Tracer in a comment is not a use\nvar _ = obs.NewTracer(1)",
			"internal/txn/txn_test.go":  "package txn\nimport \"repro/internal/obs\"\nvar _ obs.Event",
			"internal/obs/tracer.go":    "package obs\ntype Tracer struct{}\nfunc NewTracer(int) *Tracer { return nil }",
			"bench/drivers.go":          "package main\nimport \"repro/internal/obs\"\nvar _ = obs.NewTracer(1)",
			"internal/service/types.go": "package service\nimport \"repro/internal/obs\"\nvar _ obs.Registry",
		},
		caught: "internal/txn/txn.go:4: uses obs.NewTracer",
	},

	// One lab.
	{
		name: "cmd/ holds six mains",
		why: "The four \"run machines under an adversary, print a table\" binaries are cmd/lab's subcommands; " +
			"a new tool is a subcommand of an existing main before it is a seventh directory.",
		check: func(tr *tree) []string {
			var out []string
			missing := make(map[string]bool)
			for _, m := range cmdMains {
				missing[m] = true
			}
			for _, p := range tr.names {
				if path.Dir(p) == "cmd" && !missing[p] {
					out = append(out, p+": not one of the six mains")
				}
				delete(missing, p)
			}
			for _, m := range cmdMains {
				if missing[m] {
					out = append(out, m+": missing")
				}
			}
			return out
		},
		planted: map[string]string{
			"cmd/chaos/main.go": "package main", "cmd/commitd/main.go": "package main", "cmd/commitnode/main.go": "package main",
			"cmd/lab/main.go": "package main", "cmd/loadgen/main.go": "package main", "cmd/tracedump/main.go": "package main",
			"cmd/arena/main.go": "package main",
		},
		caught: "cmd/arena: not one of the six mains",
	},
	{
		name: "the scalar Protocol 2 machine is built by the simulation tools alone",
		why: "Every live path hosts txn.Manager; the scalar core.Commit is the paper-faithful oracle the simulator, " +
			"explorer, lab and differential tests run. Outside tests only those tools build it, with core.New or core.NewSet.",
		check: func(tr *tree) []string {
			files := tr.in(nonTest, outside("internal/sim", "internal/explore", "internal/harness",
				"internal/protocol", "internal/lowerbound", "cmd/lab", "simulate.go"))
			return append(tr.users("repro/internal/core", "New", files), tr.users("repro/internal/core", "NewSet", files)...)
		},
		planted: map[string]string{
			"node.go":                    "package tcommit\nimport \"repro/internal/core\"\nvar _, _ = core.New(core.Config{})",
			"simulate.go":                "package tcommit\nimport \"repro/internal/core\"\nvar _ = core.NewSet",
			"cmd/lab/sim.go":             "package main\nimport \"repro/internal/core\"\nvar _, _ = core.New(core.Config{})",
			"internal/protocol/names.go": "package protocol\nimport \"repro/internal/core\"\nvar _ = core.NewSet",
			"node_test.go":               "package tcommit\nimport \"repro/internal/core\"\nvar _, _ = core.New(core.Config{})",
		},
		caught: "node.go:3: uses core.New",
	},
	{
		name: "internal/transport imports no baseline protocol package",
		why: "The wire carries what live nodes send: the batched Protocol 2 frames and the recovery query and reply. " +
			"2PC, 3PC and Paxos Commit run in the simulator only, so their payloads have no encoding (their tags stay reserved).",
		check: func(tr *tree) []string {
			var out []string
			for _, pkg := range []string{"twopc", "threepc", "paxoscommit"} {
				out = append(out, tr.importers("repro/internal/"+pkg, tr.in(within("internal/transport")))...)
			}
			return out
		},
		planted: map[string]string{
			"internal/transport/wire.go":  "package transport\nimport \"repro/internal/paxoscommit\"\nvar _ paxoscommit.OutcomeMsg",
			"internal/protocol/arena.go":  "package protocol\nimport \"repro/internal/twopc\"\nvar _ twopc.VoteMsg",
			"internal/transport/codec.go": "package transport\n// repro/internal/threepc in a comment is not an import",
		},
		caught: "internal/transport/wire.go:1: imports repro/internal/paxoscommit",
	},
	{
		name: "a baseline protocol is built by the name table",
		why: "2PC and 3PC machine sets are built by internal/protocol's name table, so a protocol name " +
			"means one thing in every subcommand and experiment.",
		check: func(tr *tree) []string {
			files := tr.in(nonTest, outside("internal/protocol"))
			return append(tr.users("repro/internal/twopc", "New", files), tr.users("repro/internal/threepc", "New", files)...)
		},
		planted: map[string]string{
			"internal/protocol/names.go":   "package protocol\nimport \"repro/internal/twopc\"\nvar _ = twopc.New(twopc.Config{})",
			"internal/harness/baseline.go": "package harness\nimport \"repro/internal/threepc\"\nvar _ = threepc.New(threepc.Config{})",
		},
		caught: "internal/harness/baseline.go:3: uses threepc.New",
	},
	{
		name: "the hub has one fault hook",
		why: "HubOptions.Inject speaks the full fault vocabulary (drop, duplicate, delay) once per message; " +
			"per-fault Delay and Drop func fields were the second and third hooks.",
		check: func(tr *tree) []string {
			var out []string
			for _, field := range structFields("HubOptions", tr.in(nonTest, within("internal/transport"))) {
				for _, id := range field.Names {
					if _, isFunc := field.Type.(*ast.FuncType); isFunc && (id.Name == "Delay" || id.Name == "Drop") {
						out = append(out, tr.at(id.Pos(), "HubOptions has a "+id.Name+" func field"))
					}
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/transport/transport.go": "package transport\ntype HubOptions struct {\n\tInject func(m Message) Fault\n\tDrop   func(m Message) bool\n\tDelay  int\n}",
			"internal/transport/tcp.go":       "package transport\ntype TCPOptions struct{ Delay func() int }",
		},
		caught: "internal/transport/transport.go:4: HubOptions has a Drop func field",
	},
	{
		name: "self-delivery lives in the runtime",
		why: "A runtime node hands its machine's messages to itself back without sending them, so a transport " +
			"carries real links only; a transport comparing a message's To with its own id is a second loopback.",
		check: func(tr *tree) []string {
			// named reports whether e is x.<name>, <name>, or a call of either.
			named := func(e ast.Expr, names ...string) bool {
				if call, ok := e.(*ast.CallExpr); ok {
					e = call.Fun
				}
				var id string
				switch x := e.(type) {
				case *ast.SelectorExpr:
					id = x.Sel.Name
				case *ast.Ident:
					id = x.Name
				}
				for _, name := range names {
					if id == name {
						return true
					}
				}
				return false
			}
			var out []string
			for _, f := range tr.in(nonTest, within("internal/transport")) {
				ast.Inspect(f.File, func(n ast.Node) bool {
					if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
						if named(be.X, "To") && named(be.Y, "id", "ID") || named(be.Y, "To") && named(be.X, "id", "ID") {
							out = append(out, tr.at(be.Pos(), "compares a message's To with its own id"))
						}
					}
					return true
				})
			}
			return out
		},
		planted: map[string]string{
			"internal/transport/tcp.go":      "package transport\nfunc (n *TCPNode) Send(msg Message) error {\n\tif msg.To == n.id {\n\t\treturn nil\n\t}\n\treturn nil\n}",
			"internal/transport/hub.go":      "package transport\n// msg.To == n.id in a comment is not a comparison\nfunc same(a, b Message) bool { return a.To == b.To }",
			"internal/transport/tcp_test.go": "package transport\nfunc loop(msg Message, id ProcID) bool { return id != msg.To }",
		},
		caught: "internal/transport/tcp.go:3: compares a message's To with its own id",
	},

	// One time source per driver.
	{
		name: "a driver keeps one time source",
		why: "A machine steps when a message arrives, and the one ticker of the loop hosting it only tells the loop " +
			"when another tick is owed. A group's driver takes its owed ticks for every machine it hosts, and a node " +
			"on its own loop no sooner than its slowest live peer took the last; a second ticker, timer, AfterFunc, " +
			"After or Tick in the runtime is a clock goroutine or a poll come back. Cluster.CrashAfter's fault timer " +
			"schedules a crash, not a tick, and is exempt.",
		check: func(tr *tree) []string {
			files := withoutFunc(tr.in(nonTest, within("internal/runtime")), "CrashAfter")
			var sources []string
			for _, name := range []string{"NewTicker", "NewTimer", "AfterFunc", "After", "Tick"} {
				sources = append(sources, tr.users("time", name, files)...)
			}
			if len(sources) <= 1 {
				return nil
			}
			return []string{fmt.Sprintf("%s: the runtime's time source number %d, want at most 1", sources[1], len(sources))}
		},
		planted: map[string]string{
			"internal/runtime/runtime.go": "package runtime\nimport \"time\"\ntype Cluster struct{}\n" +
				"func (c *Cluster) CrashAfter(d time.Duration) { time.AfterFunc(d, nil) }\n" +
				"func (l *loop) run() {\n\tt := time.NewTicker(1) // time.After( in a comment is not a use\n\t<-t.C\n\t<-time.After(1)\n}",
			"internal/runtime/clock_test.go": "package runtime\nimport \"time\"\nvar c = time.Tick(1)",
		},
		caught: "internal/runtime/runtime.go:8: uses time.After: the runtime's time source number 2, want at most 1",
	},

	// No process-wide runtime state.
	{
		name: "the runtime keeps no state shared across clusters",
		why: "A group's shape — one driver, or one loop per node — is decided by the call that starts it " +
			"(runtime.StartGroups), from its arguments alone: a package-level variable in internal/runtime is " +
			"state every cluster in the process shares, as the set of started groups once was. The closed ready " +
			"channel, which is never written, is exempt.",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.in(nonTest, within("internal/runtime")) {
				for _, d := range f.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok || gd.Tok != token.VAR {
						continue
					}
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.Name != "ready" && id.Name != "_" {
								out = append(out, tr.at(id.Pos(), "declares package-level var "+id.Name))
							}
						}
					}
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/runtime/runtime.go": "package runtime\n// var groups in a comment is not a declaration\n" +
				"var ready = make(chan struct{})\nfunc f() { var local int; _ = local }\n" +
				"var groups struct{ set map[*Cluster]struct{} }",
			"internal/runtime/clock_test.go": "package runtime\nvar shapes = 2",
		},
		caught: "internal/runtime/runtime.go:5: declares package-level var groups",
	},

	// One service harness, one daemon.
	{
		name: "chaos and commitd build the service stack through shard.New alone",
		why: "A chaos service run and a commitd deployment are the one-group case of the sharded one: each builds " +
			"every deployment with shard.New and serves it with shard.NewHTTPHandler. A second path over service.New " +
			"or service.NewHTTPHandler would fork the workload loop and auditor, or the daemon's journals and drain.",
		check: func(tr *tree) []string {
			var out []string
			for _, root := range []string{"internal/chaos", "cmd/commitd"} {
				files := tr.in(nonTest, within(root))
				out = append(out, tr.users("repro/internal/service", "New", files)...)
				out = append(out, tr.users("repro/internal/service", "NewHTTPHandler", files)...)
				if len(tr.users("repro/internal/shard", "New", files)) == 0 {
					out = append(out, root+": never calls shard.New; if the deployment moved, move this rule with it")
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/chaos/service.go":    "package chaos\nimport \"repro/internal/shard\"\nvar _, _ = shard.New(shard.Config{})",
			"internal/chaos/chaos_test.go": "package chaos\nimport \"repro/internal/service\"\nvar _, _ = service.New(service.Config{})",
			"cmd/commitd/main.go": "package main\nimport (\n\t\"repro/internal/service\"\n\t\"repro/internal/shard\"\n)\n" +
				"// service.New( in a comment is not a call\nvar c, _ = shard.New(shard.Config{Group: service.Config{}})\nvar _ = service.NewHTTPHandler(nil)",
		},
		caught: "cmd/commitd/main.go:8: uses service.NewHTTPHandler",
	},

	// One label lookup.
	{
		name: "a metric handle is resolved in its constructor",
		why: "A Vec's With joins its label values into a map key on every call. The serving packages resolve " +
			"each child once, in a new*Metrics constructor, and keep the handle; a With anywhere else is a " +
			"lookup per transaction or per message.",
		check: func(tr *tree) []string {
			var out []string
			for _, f := range tr.in(nonTest, within("internal/service", "internal/txn")) {
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
						strings.HasPrefix(fn.Name.Name, "new") && strings.HasSuffix(fn.Name.Name, "Metrics") {
						continue
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "With" {
								out = append(out, tr.at(sel.Sel.Pos(), "calls With outside a new*Metrics constructor"))
							}
						}
						return true
					})
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/txn/txn.go": "package txn\nfunc newMMetrics(v vec) handle { return v.With(\"0\") }\n" +
				"func (m *Manager) decided(d string) {\n\tm.met.decided.With(m.node, d).Inc() // .With( in a comment is not a call\n}",
			"internal/shard/coordinator.go": "package shard\nfunc (c *Coordinator) done() { c.met.outcomes.With(\"committed\").Inc() }",
		},
		caught: "internal/txn/txn.go:4: calls With outside a new*Metrics constructor",
	},
	// Every option has a caller.
	{
		name: "a serving option has a production caller",
		why: "The paper's protocol has three parameters, n, t and K; every other setting is ours to justify. Each exported " +
			"field of the serving stack's config structs is set by some program file outside bench/, as a composite-literal " +
			"key or by assignment; an option only tests set is a constant with extra steps.",
		check: func(tr *tree) []string {
			files := tr.in(nonTest, outside("bench"))
			var out []string
			for _, o := range servingOptions {
				fields := structFields(o.name, tr.in(nonTest, func(p string) bool { return path.Dir(p) == o.dir }))
				if len(fields) == 0 {
					out = append(out, o.dir+": declares no "+o.name+"; if the options moved, move this rule with them")
					continue
				}
				set := optionSetters(o.dir, o.name, files)
				for _, field := range fields {
					for _, id := range field.Names {
						qualified := path.Base(o.dir) + "." + o.name + "." + id.Name
						if id.IsExported() && !set[id.Name] && optionExempt[qualified] == "" {
							out = append(out, tr.at(id.Pos(), qualified+" is set by no program file outside bench/"))
						}
					}
				}
			}
			return out
		},
		planted: map[string]string{
			"internal/service/types.go": "package service\ntype Config struct{ N int }",
			"internal/shard/coordinator.go": "package shard\nimport \"repro/internal/service\"\n" +
				"type Config struct{ Group service.Config }\nvar _ = Config{Group: service.Config{N: 3}}",
			"internal/txn/txn.go":         "package txn\ntype Config struct{ InboxShards int }",
			"internal/runtime/runtime.go": "package runtime\ntype NodeConfig struct{ id int }\ntype ClusterOptions struct{ n int }",
			"internal/transport/transport.go": "package transport\ntype HubOptions struct {\n\tRegistry  int\n\tQueueSize int\n}\n" +
				"func NewHub(o HubOptions) { o.QueueSize = 4096 }",
			"internal/transport/bench_test.go": "package transport_test\nimport \"repro/internal/transport\"\n" +
				"var _ = transport.HubOptions{QueueSize: 1 << 16}",
			"bench/drivers.go": "package main\nimport \"repro/internal/transport\"\nvar _ = transport.HubOptions{QueueSize: 1}",
			"cmd/commitd/main.go": "package main\nimport \"repro/internal/transport\"\n" +
				"// QueueSize: in a comment is not a key\nfunc f(h *transport.HubOptions) { h.Registry = 1 }",
			"internal/wal/segment.go":       "package wal\ntype SegmentedOptions struct{ fs int }",
			"internal/obs/watch/watch.go":   "package watch\ntype Config struct{ every int }",
			"internal/obs/flight/flight.go": "package flight\ntype Config struct{ Clock func() }",
		},
		caught: "internal/transport/transport.go:4: transport.HubOptions.QueueSize is set by no program file outside bench/",
	},
}

// TestArchitecture evaluates every rule over the repository, and over the
// rule's planted tree to show that it can fail.
func TestArchitecture(t *testing.T) {
	if len(rules) != wantRules {
		t.Fatalf("the guard has %d rules, want %d: a deleted rule is a deleted condition", len(rules), wantRules)
	}
	repo := loadTree(t, ".")
	for _, r := range rules {
		r := r
		t.Run(r.name, func(t *testing.T) {
			if r.why == "" {
				t.Error("rule gives no reason")
			}
			for _, v := range r.check(repo) {
				t.Errorf("%s\n\twhy: %s", v, r.why)
			}
			if got := r.check(newTree(t, r.planted)); !reflect.DeepEqual(got, []string{r.caught}) {
				t.Errorf("planted tree: got violations %q, want exactly %q", got, r.caught)
			}
		})
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoDocs runs the real checks against the repository, so `go test`
// fails the moment a maintained doc link breaks or a README example
// drifts from gofmt.
func TestRepoDocs(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "README.md")); err != nil {
		t.Skipf("repo root not found: %v", err)
	}
	for _, err := range Check(root) {
		t.Error(err)
	}
}

func TestCheckLinks(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "exists.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(root, "README.md")
	text := "[ok](exists.md) [anchor](exists.md#sec) [ext](https://example.com) [page](#sec)\n[broken](missing.md)\n[out](../escape.md)\n"
	errs := checkLinks(root, doc, text)
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2 (broken + escape): %v", len(errs), errs)
	}
}

func TestCheckPaths(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal", "core"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal", "core", "query.go"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	live := "`internal/core` and `internal/core/query.go`; `./cmd/gone` and `go run ./x` are not paths\n"
	if errs := checkPaths(root, "doc", live); len(errs) != 0 {
		t.Fatalf("live paths rejected: %v", errs)
	}
	dead := "intro\nsee `internal/clock` and `cmd/gone/main.go`\n"
	errs := checkPaths(root, "doc", dead)
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2 for the dead paths: %v", len(errs), errs)
	}
	if msg := errs[0].Error(); !strings.Contains(msg, "doc:2:") || !strings.Contains(msg, "internal/clock") {
		t.Fatalf("error %q should carry the line and the dead path", msg)
	}
}

func TestCheckFigures(t *testing.T) {
	live := "`bench -figure protocols -out .` and `-figure=3`, or `bench -figure\nlease` wrapped; `-figure all` runs the table\n"
	if errs := checkFigures("doc", live); len(errs) != 0 {
		t.Fatalf("live figures rejected: %v", errs)
	}
	dead := "intro\n`go run ./cmd/bench -figure keys -clients 4`\n"
	errs := checkFigures("doc", dead)
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1 for the dead figure: %v", len(errs), errs)
	}
	if msg := errs[0].Error(); !strings.Contains(msg, "doc:2:") || !strings.Contains(msg, "keys") || !strings.Contains(msg, "protocols") {
		t.Fatalf("error %q should carry the line, the dead name and the valid names", msg)
	}
}

func TestCheckGoBlocks(t *testing.T) {
	good := "intro\n```go\nx := 1\nif x > 0 {\n\tfmt.Println(x)\n}\n```\n"
	if errs := checkGoBlocks("doc", good); len(errs) != 0 {
		t.Fatalf("clean block rejected: %v", errs)
	}
	spaces := "```go\nif true {\n    fmt.Println(1)\n}\n```\n" // 4-space indent
	if errs := checkGoBlocks("doc", spaces); len(errs) == 0 {
		t.Fatal("space-indented block accepted")
	}
	unparsable := "```go\nfunc {{{\n```\n"
	if errs := checkGoBlocks("doc", unparsable); len(errs) == 0 {
		t.Fatal("unparsable block accepted")
	}
	fullFile := "```go\npackage main\n\nfunc main() {}\n```\n"
	if errs := checkGoBlocks("doc", fullFile); len(errs) != 0 {
		t.Fatalf("full-file block rejected: %v", errs)
	}
	unterminated := "```go\nx := 1\n"
	if errs := checkGoBlocks("doc", unterminated); len(errs) == 0 {
		t.Fatal("unterminated block accepted")
	}
}

func TestCheckTypes(t *testing.T) {
	table := "### 2.3 Requests\n\n| `op` | Request |\n| ---- | ------- |\n| `0x01` | update |\n\n" +
		"| `crdtType` | `mutation` |\n| ---------- | ---------- |\n" +
		"| `g-counter` | `inc` |\n| `pn-counter` | `inc` |\n| `pn-counter` | `dec` |\n" +
		"| `or-set` | `add` |\n| `or-set` | `remove` |\n| `lww-register` | `set` |\n"
	after := "\n### 2.4 Responses\n\n| `status` | Name |\n| --- | --- |\n| `0` | `ok` |\n"
	if errs := checkTypes("doc", table+after); len(errs) != 0 {
		t.Fatalf("census table rejected: %v", errs)
	}
	extra := table + "| `ew-flag` | `enable` |\n" + after
	if errs := checkTypes("doc", extra); len(errs) != 1 || !strings.Contains(errs[0].Error(), "ew-flag") {
		t.Fatalf("extra ew-flag row: got %v, want one error naming it", errs)
	}
	var noORSet []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.Contains(line, "`or-set`") {
			noORSet = append(noORSet, line)
		}
	}
	if errs := checkTypes("doc", strings.Join(noORSet, "\n")+after); len(errs) != 1 || !strings.Contains(errs[0].Error(), "or-set") {
		t.Fatalf("missing or-set rows: got %v, want one error naming it", errs)
	}
}

func TestCheckQueryRows(t *testing.T) {
	table := "### 1.4 Query phases\n\n| Row | Phase | Event |\n| --- | ----- | ----- |\n" +
		"| Q1 | — | submit |\n| Q2 | prepare | ACK |\n\n| `type` | Message |\n| --- | --- |\n| Q9 | not a row |\n"
	code := map[string]string{"query.go": "r.start() // [Q1]\n// [Q2] record the ACK\n// [Qn] is prose\n"}
	if errs := checkQueryRows("doc", table, code); len(errs) != 0 {
		t.Fatalf("matching table rejected: %v", errs)
	}
	extra := map[string]string{"query.go": code["query.go"], "lease.go": "// [Q3] fall back\n"}
	if errs := checkQueryRows("doc", table, extra); len(errs) != 1 || !strings.Contains(errs[0].Error(), "no row Q3, cited in internal/core/lease.go") {
		t.Fatalf("row missing from the docs: got %v, want one error naming Q3", errs)
	}
	uncited := map[string]string{"query.go": "r.start() // [Q1]\n"}
	if errs := checkQueryRows("doc", table, uncited); len(errs) != 1 || !strings.Contains(errs[0].Error(), "row Q2 is cited nowhere") {
		t.Fatalf("row missing from the code: got %v, want one error naming Q2", errs)
	}
}

// Command docscheck is the documentation gate run by CI: it fails on
// broken intra-repo markdown links and on `-figure X` mentions naming a
// figure cmd/bench no longer has in the maintained docs (README.md and
// docs/*.md), on gofmt drift or parse errors in the Go code blocks of
// README.md, and when the mutation table of docs/PROTOCOL.md §2.3 and the
// codec registry disagree on which payload types exist.
//
//	go run ./cmd/docscheck [repo-root]
package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"crdtsmr/internal/bench"
	"crdtsmr/internal/crdt"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	errs := Check(root)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// Check runs every documentation check under root and returns the
// failures.
func Check(root string) []error {
	var errs []error
	docs := []string{filepath.Join(root, "README.md")}
	globbed, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	docs = append(docs, globbed...)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", doc, err))
			continue
		}
		errs = append(errs, checkLinks(root, doc, string(data))...)
		errs = append(errs, checkFigures(doc, string(data))...)
	}
	readme := filepath.Join(root, "README.md")
	if data, err := os.ReadFile(readme); err == nil {
		errs = append(errs, checkGoBlocks(readme, string(data))...)
	}
	protocol := filepath.Join(root, "docs", "PROTOCOL.md")
	if data, err := os.ReadFile(protocol); err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", protocol, err))
	} else {
		errs = append(errs, checkTypes(protocol, string(data))...)
	}
	return errs
}

// figureRE matches a cmd/bench figure selection; the flag and its value
// may sit on either side of a wrapped prose line.
var figureRE = regexp.MustCompile(`-figure[\s=]+(\w+)`)

// checkFigures verifies every `-figure X` in doc names an entry of
// bench.Figures (or "all"), so deleting a figure cannot leave the docs
// advertising a dead command.
func checkFigures(doc, text string) []error {
	var errs []error
	valid := bench.FigureNames()
	for _, m := range figureRE.FindAllStringSubmatchIndex(text, -1) {
		name := text[m[2]:m[3]]
		if name == "all" || slices.Contains(valid, name) {
			continue
		}
		line := 1 + strings.Count(text[:m[0]], "\n")
		errs = append(errs, fmt.Errorf("%s:%d: -figure %s is not a cmd/bench figure (have %s)", doc, line, name, strings.Join(valid, ", ")))
	}
	return errs
}

// checkTypes verifies that the backticked names in the first column of the
// mutation table in §2.3 of doc (the table headed `crdtType`) are exactly
// crdt.Names(): a payload type is served end to end or not registered.
func checkTypes(doc, text string) []error {
	documented := map[string]bool{}
	inSection, inTable := false, false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			inSection, inTable = strings.HasPrefix(line, "### 2.3 "), false
			continue
		}
		cells := strings.Split(line, "|")
		if !inSection || len(cells) < 3 {
			inTable = false
			continue
		}
		first := strings.TrimSpace(cells[1])
		if first == "`crdtType`" {
			inTable = true
		} else if name, ok := strings.CutPrefix(first, "`"); inTable && ok {
			documented[strings.TrimSuffix(name, "`")] = true
		}
	}
	var errs []error
	registered := crdt.Names()
	for _, name := range registered {
		if !documented[name] {
			errs = append(errs, fmt.Errorf("%s: §2.3 mutation table has no rows for registered type %s", doc, name))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !slices.Contains(registered, name) {
			errs = append(errs, fmt.Errorf("%s: §2.3 mutation table lists %s, which is not a registered type (have %s)", doc, name, strings.Join(registered, ", ")))
		}
	}
	return errs
}

// Command docscheck is the documentation gate run by CI: it fails on
// broken intra-repo markdown links, backticked repository paths that do
// not exist, and `-figure X` mentions naming a figure cmd/bench no longer
// has in the maintained docs (README.md and docs/*.md), on gofmt drift or parse errors in the Go code blocks of
// README.md, when the mutation table of docs/PROTOCOL.md §2.3 and the
// codec registry disagree on which payload types exist, and when the query
// phase table of docs/PROTOCOL.md §1.4 and the [Qn] cites in internal/core
// disagree on which transitions exist.
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
		errs = append(errs, checkPaths(root, doc, string(data))...)
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
		errs = append(errs, checkQueryRows(protocol, string(data), coreSources(root))...)
	}
	return errs
}

// coreSources reads the non-test Go files of internal/core, by file name.
func coreSources(root string) map[string]string {
	sources := map[string]string{}
	files, _ := filepath.Glob(filepath.Join(root, "internal", "core", "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if data, err := os.ReadFile(f); err == nil {
			sources[filepath.Base(f)] = string(data)
		}
	}
	return sources
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

// firstColumn returns the first-column cells below the header of every
// markdown table in text whose header row starts with the cell header.
func firstColumn(text, header string) []string {
	var cells []string
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		row := strings.Split(line, "|")
		if len(row) < 3 {
			inTable = false
			continue
		}
		if first := strings.TrimSpace(row[1]); first == header {
			inTable = true
		} else if inTable {
			cells = append(cells, first)
		}
	}
	return cells
}

// checkTypes verifies that the backticked names in the first column of the
// mutation table of doc (§2.3, the table headed `crdtType`) are exactly
// crdt.Names(): a payload type is served end to end or not registered.
func checkTypes(doc, text string) []error {
	documented := map[string]bool{}
	for _, cell := range firstColumn(text, "`crdtType`") {
		if name, ok := strings.CutPrefix(cell, "`"); ok {
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

var (
	rowRE  = regexp.MustCompile(`^Q\d+$`)
	citeRE = regexp.MustCompile(`\[(Q\d+)\]`)
)

// checkQueryRows verifies that the row ids of the query phase table in doc
// (the table headed `Row`) are exactly the [Qn] transition cites in
// sources, so every documented transition is cited where the code makes it
// and every cited one is documented.
func checkQueryRows(doc, text string, sources map[string]string) []error {
	documented := map[string]bool{}
	for _, cell := range firstColumn(text, "Row") {
		if rowRE.MatchString(cell) {
			documented[cell] = true
		}
	}
	cited := map[string]string{} // row id → first file citing it
	for _, name := range slices.Sorted(maps.Keys(sources)) {
		for _, m := range citeRE.FindAllStringSubmatch(sources[name], -1) {
			if _, ok := cited[m[1]]; !ok {
				cited[m[1]] = name
			}
		}
	}
	var errs []error
	for _, id := range slices.Sorted(maps.Keys(cited)) {
		if !documented[id] {
			errs = append(errs, fmt.Errorf("%s: query phase table has no row %s, cited in internal/core/%s", doc, id, cited[id]))
		}
	}
	for _, id := range slices.Sorted(maps.Keys(documented)) {
		if _, ok := cited[id]; !ok {
			errs = append(errs, fmt.Errorf("%s: query phase table row %s is cited nowhere in internal/core", doc, id))
		}
	}
	return errs
}

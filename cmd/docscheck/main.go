// Command docscheck is the documentation gate run by CI: it fails on
// broken intra-repo markdown links in the maintained docs (README.md and
// docs/*.md) and on gofmt drift or parse errors in the Go code blocks of
// README.md.
//
//	go run ./cmd/docscheck [repo-root]
package main

import (
	"fmt"
	"os"
	"path/filepath"
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
	}
	readme := filepath.Join(root, "README.md")
	if data, err := os.ReadFile(readme); err == nil {
		errs = append(errs, checkGoBlocks(readme, string(data))...)
	}
	return errs
}

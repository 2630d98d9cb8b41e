package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links [text](target). Images and
// reference-style links do not occur in this repository's docs.
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link in doc resolves to a file or
// directory in the repository. External schemes and pure in-page anchors
// are skipped; a relative link's anchor fragment is stripped before the
// existence check (anchor validity is markdown-renderer-specific).
func checkLinks(root, doc, text string) []error {
	var errs []error
	for lineNo, line := range strings.Split(text, "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(doc), target)
			if !within(root, resolved) {
				errs = append(errs, fmt.Errorf("%s:%d: link %q escapes the repository", doc, lineNo+1, m[1]))
				continue
			}
			if _, err := os.Stat(resolved); err != nil {
				errs = append(errs, fmt.Errorf("%s:%d: broken link %q (%s does not exist)", doc, lineNo+1, m[1], resolved))
			}
		}
	}
	return errs
}

// pathRE matches a backticked repository path such as `internal/core` or
// `cmd/bench/main.go`.
var pathRE = regexp.MustCompile("`((?:internal|cmd|client|examples|benchmark)/[\\w./-]*)`")

// checkPaths verifies every backticked repository path in doc exists, so
// deleting a package or file cannot leave the docs pointing at it.
func checkPaths(root, doc, text string) []error {
	var errs []error
	for lineNo, line := range strings.Split(text, "\n") {
		for _, m := range pathRE.FindAllStringSubmatch(line, -1) {
			if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
				errs = append(errs, fmt.Errorf("%s:%d: path %s does not exist", doc, lineNo+1, m[1]))
			}
		}
	}
	return errs
}

// within reports whether path stays inside root after cleaning.
func within(root, path string) bool {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return false
	}
	return rel == "." || (!strings.HasPrefix(rel, ".."+string(filepath.Separator)) && rel != "..")
}

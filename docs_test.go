package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The reading path's documents name only what the repository holds: a tool
// they name (cmd/<name>, or a dj<name> word) is a directory under cmd/ — or,
// for a dj<name> word, the internal package of that name — and a BENCH*.json
// they name is a file at the root. The per-change history, which quotes the
// commands of tools since deleted, lives in EXPERIMENTS-archive.md and is not
// read here.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	var (
		tool  = regexp.MustCompile(`cmd/([a-z]+)`)
		word  = regexp.MustCompile(`\b(dj[a-z]+)(?:[^a-z-]|$)`)
		bench = regexp.MustCompile(`\bBENCH[A-Za-z0-9_]*\.json`)
	)
	isDir := func(path string) bool {
		fi, err := os.Stat(path)
		return err == nil && fi.IsDir()
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range tool.FindAllStringSubmatch(line, -1) {
				if !isDir(filepath.Join("cmd", m[1])) {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
			for _, m := range word.FindAllStringSubmatch(line, -1) {
				if !isDir(filepath.Join("cmd", m[1])) && !isDir(filepath.Join("internal", m[1])) {
					t.Errorf("%s:%d names %s, neither a tool under cmd/ nor a package under internal/", doc, i+1, m[1])
				}
			}
			for _, name := range bench.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s:%d names %s, which is not in the repository", doc, i+1, name)
				}
			}
		}
	}
}

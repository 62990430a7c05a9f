package repro

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRecordingLayersLinkNoNetworkStack: a process that records or replays
// links the layers below the dejavu facade, and none of them may pull in the
// host's network stack — the simulated network is netsim, and the metrics
// endpoint lives in dejavu, the only caller that serves it. The walk covers
// the non-test import closure of the benchmark program and of every layer it
// or the recovery tools build on, standard library included, and names the
// import chain that reaches a forbidden package. It reads package clauses
// with go/build only: no go tool, no network.
func TestRecordingLayersLinkNoNetworkStack(t *testing.T) {
	forbidden := map[string]bool{"net": true, "net/http": true, "crypto/tls": true, "crypto/x509": true}
	roots := []string{"repro/benchmark"}
	for _, name := range []string{
		"checkpoint", "core", "djgram", "djrpc", "djsock", "ids", "logcheck", "netsim", "obs", "rudp", "tracelog",
		"chaos", "super", "recline", "kvapp", "netevent",
	} {
		roots = append(roots, "repro/internal/"+name)
	}

	// Breadth first from every root at once, so each package is reached by a
	// shortest chain; from[p] is the importer p was first reached through.
	from := map[string]string{}
	dirs := map[string]string{} // import path → directory, for vendor lookup
	queue := []string{}
	for _, r := range roots {
		from[r] = ""
		queue = append(queue, r)
	}
	var hits []string
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if forbidden[path] {
			hits = append(hits, path)
			continue
		}
		var (
			pkg *build.Package
			err error
		)
		if rest, ok := strings.CutPrefix(path, "repro/"); ok {
			pkg, err = build.Default.ImportDir(filepath.FromSlash(rest), 0)
		} else {
			pkg, err = build.Default.Import(path, dirs[from[path]], 0)
		}
		if err != nil {
			t.Fatalf("%s: %v", chain(from, path), err)
		}
		dirs[path] = pkg.Dir
		for _, imp := range pkg.Imports {
			if imp == "C" || imp == "unsafe" {
				continue
			}
			if _, seen := from[imp]; !seen {
				from[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	if _, ok := from["runtime"]; !ok {
		t.Fatalf("walked %d packages without reaching runtime: the walk misses the standard library", len(from))
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("links %s: %s", h, chain(from, h))
	}
}

// chain spells the import chain from a root to path.
func chain(from map[string]string, path string) string {
	var links []string
	for p := path; p != ""; p = from[p] {
		links = append(links, p)
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return strings.Join(links, " → ")
}

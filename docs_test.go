package contango

// Documentation gates, run by the CI docs job (go test -run 'TestDocs' .):
// every intra-repo markdown link must resolve to a real file, and the API
// reference must document exactly the endpoints the HTTP mux serves and
// exactly the option and sweep fields the submit handlers decode.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"contango/internal/service"
)

// docFiles returns the repo's markdown documents: the root-level files
// plus everything under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	under, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, under...)
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	sort.Strings(files)
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsMarkdownLinksResolve fails when a relative markdown link in any
// repo document points at a file that does not exist.
func TestDocsMarkdownLinksResolve(t *testing.T) {
	for _, doc := range docFiles(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			// External links, mail links and in-page anchors are out of
			// scope — only intra-repo file references are checked.
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if !strings.HasPrefix(filepath.Clean(resolved), "..") {
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q (resolved %s): %v", doc, m[1], resolved, err)
				}
			}
		}
	}
}

var muxRegistration = regexp.MustCompile(`s\.mux\.Handle(?:Func)?\("([^"]+)"`)

// muxPaths extracts the path patterns registered on the contangod mux.
func muxPaths(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("internal", "service", "http.go"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, m := range muxRegistration.FindAllStringSubmatch(string(src), -1) {
		paths = append(paths, m[1])
	}
	if len(paths) < 5 {
		t.Fatalf("found only %d mux registrations in http.go — extraction regexp broken?", len(paths))
	}
	return paths
}

// apiDocRow matches one row of the endpoint table in docs/API.md:
// "| GET | `/api/v1/queue` | … |".
var apiDocRow = regexp.MustCompile(`\| (GET|POST|DELETE) \| ` + "`([^`]+)`" + ` \|`)

// TestDocsAPIEndpointsMatchMux keeps docs/API.md and the mux in lockstep:
// every registered path must appear in the reference, and every
// documented endpoint must route to a registered handler.
func TestDocsAPIEndpointsMatchMux(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	registered := muxPaths(t)

	// Forward: a handler without documentation fails the gate.
	for _, p := range registered {
		if !strings.Contains(doc, p) {
			t.Errorf("mux registers %q but docs/API.md never mentions it", p)
		}
	}

	// Reverse: a documented endpoint that no handler serves is stale. The
	// mux uses prefix patterns for parameterized paths ("/api/v1/jobs/"
	// serves "/api/v1/jobs/{id}/result"), so prefix match is the routing
	// rule net/http itself applies.
	rows := apiDocRow.FindAllStringSubmatch(doc, -1)
	if len(rows) < 10 {
		t.Fatalf("found only %d endpoint rows in docs/API.md — table format changed?", len(rows))
	}
	for _, row := range rows {
		path := row[2]
		routed := false
		for _, p := range registered {
			if path == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)) {
				routed = true
				break
			}
		}
		if !routed {
			t.Errorf("docs/API.md documents %s %s but no mux registration routes it", row[1], path)
		}
	}

	// Each documented endpoint needs a dedicated reference section.
	for _, row := range rows {
		heading := fmt.Sprintf("### %s %s", row[1], row[2])
		if !strings.Contains(doc, heading) {
			t.Errorf("docs/API.md endpoint table lists %q but has no %q section", row[2], heading)
		}
	}
}

// jsonTags returns the JSON field names of a struct type, in field order.
func jsonTags(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			names = append(names, name)
		}
	}
	return names
}

// sameSet fails unless doc and want name the same fields.
func sameSet(t *testing.T, what string, doc, want []string) {
	t.Helper()
	doc, want = append([]string(nil), doc...), append([]string(nil), want...)
	sort.Strings(doc)
	sort.Strings(want)
	if !reflect.DeepEqual(doc, want) {
		t.Errorf("%s documents %v, the struct's JSON tags are %v", what, doc, want)
	}
}

var (
	// optionsDocRow matches one row of the OptionsWire field table:
	// "| `plan` | string | … |".
	optionsDocRow = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|")
	// sweepDocKey matches one axis of the batch sweep example:
	// `    "plans": [...],`.
	sweepDocKey = regexp.MustCompile(`(?m)^\s*"([a-z_]+)":`)
)

// TestDocsAPIOptionsMatchWire keeps docs/API.md in lockstep with the
// submit wire types: the OptionsWire table lists exactly the struct's JSON
// fields, and the batch sweep example names exactly Sweep's axes. A field
// the docs still describe but the decoder rejects (or the reverse) fails.
func TestDocsAPIOptionsMatchWire(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	_, table, ok := strings.Cut(doc, "`options` (`OptionsWire`)")
	if !ok {
		t.Fatal("docs/API.md has no OptionsWire table")
	}
	// The table runs from its header rule to the first blank line.
	_, table, _ = strings.Cut(table, "| --- |")
	table, _, _ = strings.Cut(table, "\n\n")
	var fields []string
	for _, m := range optionsDocRow.FindAllStringSubmatch(table, -1) {
		fields = append(fields, m[1])
	}
	sameSet(t, "the docs/API.md OptionsWire table", fields, jsonTags(reflect.TypeOf(service.OptionsWire{})))

	_, sweep, ok := strings.Cut(doc, `"sweep": {`)
	if !ok {
		t.Fatal("docs/API.md has no batch sweep example")
	}
	sweep, _, _ = strings.Cut(sweep, "}")
	var axes []string
	for _, m := range sweepDocKey.FindAllStringSubmatch(sweep, -1) {
		axes = append(axes, m[1])
	}
	sameSet(t, "the docs/API.md sweep example", axes, jsonTags(reflect.TypeOf(service.Sweep{})))
}

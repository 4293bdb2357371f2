// Package ctreetest holds the helpers the construction tests share: a
// canonical clock-tree digest, a reader for golden files of
// "<case> <sha256>" lines, and a field-by-field arena comparison.
package ctreetest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"contango/internal/ctree"
	"contango/internal/geom"
	"contango/internal/tech"
)

// node is the canonical form of one tree node. JSON renders floats in
// their shortest round-trip form, so the digest is exact to the bit.
type node struct {
	ID       int
	Kind     ctree.Kind
	Loc      geom.Point
	Parent   int
	Children []int
	Route    geom.Polyline
	WidthIdx int
	Snake    float64
	Buf      *tech.Composite
	SinkCap  float64
	Name     string
}

// Digest returns the SHA-256 of a's canonical form: every live slot in
// index order (kind, location, parent, children, route, wire width, snake,
// buffer, sink cap, name), the source resistance, and any extra values the
// caller wants pinned with the tree (counters, reports).
func Digest(a *ctree.Arena, extra ...interface{}) string {
	var nodes []node
	for id := 0; id < a.Len(); id++ {
		if !a.Alive.Test(id) {
			continue
		}
		i := int32(id)
		cn := node{ID: id, Kind: a.Kind[i], Loc: a.Loc[i], Parent: int(a.Parent[i]),
			WidthIdx: int(a.WidthIdx[i]), Snake: a.Snake[i], SinkCap: a.SinkCap[i], Name: a.Name[i]}
		if rl := a.RouteLen[i]; rl > 0 {
			cn.Route = a.Route(i)
		}
		if comp, ok := a.Buf(i); ok {
			cn.Buf = &comp
		}
		for _, c := range a.Children(i) {
			cn.Children = append(cn.Children, int(c))
		}
		nodes = append(nodes, cn)
	}
	b, err := json.Marshal([]interface{}{nodes, a.SourceR, extra})
	if err != nil {
		panic(err) // plain data: marshaling cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// RequireAMD64 skips the test off amd64. Golden digests pin amd64
// floating point; other targets may fuse multiply-adds and legitimately
// differ in the last bit.
func RequireAMD64(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
}

// Golden reads a golden file of "<case> <sha256>" lines.
func Golden(t testing.TB, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Check fails the test unless got is the golden digest recorded for name.
// The golden files are frozen: a digest change means construction output
// changed, which is a regression unless deliberately justified.
func Check(t testing.TB, golden map[string]string, name, got string) {
	t.Helper()
	want, ok := golden[name]
	switch {
	case !ok:
		t.Fatalf("no golden digest for %s", name)
	case got != want:
		t.Fatalf("%s: digest %s, golden %s", name, got, want)
	}
}

// RequireSameArena fails the test unless got and want agree in their root
// and in every exported field, span offsets and span garbage included. An
// empty slice equals a nil one: Clone returns nil where a recycled arena
// keeps an empty backing array.
func RequireSameArena(t testing.TB, label string, got, want *ctree.Arena) {
	t.Helper()
	if got.Root() != want.Root() {
		t.Fatalf("%s: root %d != %d", label, got.Root(), want.Root())
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		g, w := gv.Field(i), wv.Field(i)
		if g.Kind() == reflect.Slice && g.Len() == 0 && w.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(g.Interface(), w.Interface()) {
			t.Fatalf("%s: arena field %s differs", label, f.Name)
		}
	}
}

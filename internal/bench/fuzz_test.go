package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzBenchRead feeds arbitrary text to Read. It must never panic, and any
// benchmark it accepts must survive Write and a second Read unchanged.
// The seed corpus lives in testdata/fuzz/FuzzBenchRead.
func FuzzBenchRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		b, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, b); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written benchmark does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("round trip changed the benchmark:\n got %+v\nwant %+v", got, b)
		}
	})
}

package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 3}}
	var buf bytes.Buffer
	if err := WriteEdgeListText(&buf, 5, edges); err != nil {
		t.Fatal(err)
	}
	n, got, err := ReadEdgeListText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(got) != len(edges) {
		t.Fatalf("n=%d edges=%d, want 5, %d", n, len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: %v != %v", i, got[i], edges[i])
		}
	}
}

func TestTextInferNFromMaxID(t *testing.T) {
	in := "0 5\n2 3\n"
	n, edges, err := ReadEdgeListText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || len(edges) != 2 {
		t.Fatalf("n=%d edges=%d", n, len(edges))
	}
}

func TestTextCommentsAndBlank(t *testing.T) {
	in := "# 4 2\n% ignored\n\n0 1\n2 3\n"
	n, edges, err := ReadEdgeListText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(edges) != 2 {
		t.Fatalf("n=%d edges=%d", n, len(edges))
	}
}

func TestTextMalformed(t *testing.T) {
	cases := []string{"0\n", "a b\n", "1 x\n"}
	for _, in := range cases {
		if _, _, err := ReadEdgeListText(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected parse error", in)
		}
	}
}

func TestTextHeaderTooSmall(t *testing.T) {
	in := "# 2 1\n0 5\n"
	if _, _, err := ReadEdgeListText(strings.NewReader(in)); err == nil {
		t.Fatal("expected error when id exceeds declared n")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {100, 200}, {1 << 40, 2}}
	var buf bytes.Buffer
	if err := WriteEdgeListBinary(&buf, 1<<41, edges); err != nil {
		t.Fatal(err)
	}
	n, got, err := ReadEdgeListBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<41 || len(got) != 3 {
		t.Fatalf("n=%d edges=%d", n, len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: %v != %v", i, got[i], edges[i])
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	buf := bytes.Repeat([]byte{0}, 32)
	if _, _, err := ReadEdgeListBinary(bytes.NewReader(buf)); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdgeListBinary(&buf, 4, []Edge{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-8]
	if _, _, err := ReadEdgeListBinary(bytes.NewReader(short)); err == nil {
		t.Fatal("expected truncation error")
	}
}

// binaryHeader encodes a binary edge-list header claiming n vertices
// and m edges.
func binaryHeader(n, m int64) []byte {
	var b []byte
	for _, h := range []int64{binaryMagic, binaryVersion, n, m} {
		b = binary.LittleEndian.AppendUint64(b, uint64(h))
	}
	return b
}

// A short file whose header claims billions of edges must fail as
// truncated, without first allocating room for every claimed edge.
func TestBinaryHugeEdgeCountTruncated(t *testing.T) {
	in := append(binaryHeader(4, 1<<33), make([]byte, 10)...) // 42 bytes
	_, _, err := ReadEdgeListBinary(bytes.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "truncated edge data at 0/8589934592") {
		t.Fatalf("err = %v, want truncated edge data", err)
	}
}

// FuzzReadEdgeListText feeds arbitrary text to the text reader: it must
// return an error or an edge list that writes back and re-reads to the
// same n and edges.
func FuzzReadEdgeListText(f *testing.F) {
	f.Add([]byte("# 5 4\n0 1\n1 2\n2 0\n3 3\n"))
	f.Add([]byte("% comment\n\n0 5\n2 3\n"))
	f.Add([]byte("# 2 1\n0 5\n"))
	f.Add([]byte("# 8589934592 8589934592\n0 1\n"))
	f.Add([]byte("0\n"))
	f.Add([]byte("-3 -4\n9223372036854775807 0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		n, edges, err := ReadEdgeListText(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeListText(&buf, n, edges); err != nil {
			t.Fatal(err)
		}
		n2, edges2, err := ReadEdgeListText(&buf)
		if err != nil || n2 != n || !slices.Equal(edges2, edges) {
			t.Fatalf("round trip: (%d, %d edges, %v), want (%d, %d edges)", n2, len(edges2), err, n, len(edges))
		}
	})
}

// FuzzReadEdgeListBinary feeds arbitrary bytes to the binary reader: it
// must return an error or an edge list that re-encodes to exactly the
// bytes it consumed, and a huge claimed edge count must not exhaust
// memory.
func FuzzReadEdgeListBinary(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteEdgeListBinary(&valid, 1<<41, []Edge{{0, 1}, {100, 200}, {1 << 40, 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-8])
	f.Add(binaryHeader(4, 0))
	f.Add(append(binaryHeader(4, 1<<33), make([]byte, 10)...))
	f.Add(binaryHeader(4, math.MaxInt64))
	f.Add(binaryHeader(-1, 1))
	f.Add(binaryHeader(4, 1)[:20])
	f.Fuzz(func(t *testing.T, in []byte) {
		n, edges, err := ReadEdgeListBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeListBinary(&buf, n, edges); err != nil {
			t.Fatal(err)
		}
		if buf.Len() > len(in) || !bytes.Equal(buf.Bytes(), in[:buf.Len()]) {
			t.Fatalf("re-encoding %d edges does not reproduce the consumed input", len(edges))
		}
	})
}

func TestSaveLoadFileTextAndBinary(t *testing.T) {
	dir := t.TempDir()
	g := cycle(8)
	for _, name := range []string{"g.txt", "g.bin"} {
		p := filepath.Join(dir, name)
		if err := SaveFile(p, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := LoadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.N != g.N || g2.NumArcs() != g.NumArcs() {
			t.Fatalf("%s: round trip N=%d arcs=%d, want N=%d arcs=%d",
				name, g2.N, g2.NumArcs(), g.N, g.NumArcs())
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	_, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt"))
	if err == nil {
		t.Fatal("expected error for missing file")
	}
	if !os.IsNotExist(err) {
		t.Fatalf("expected not-exist error, got %v", err)
	}
}

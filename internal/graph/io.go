package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// binaryMagic identifies the repository's binary edge-list format: a
// little-endian header (magic, version, n, m) followed by m (u, v)
// int64 pairs.
const (
	binaryMagic   = 0x584C5550 // "PULX"
	binaryVersion = 1

	// maxBinaryPrealloc caps the edges ReadEdgeListBinary allocates
	// before reading them (16 MiB of edges).
	maxBinaryPrealloc = 1 << 20
)

// WriteEdgeListText writes "u v" lines preceded by a "# n m" header
// comment. The format round-trips through ReadEdgeListText.
func WriteEdgeListText(w io.Writer, n int64, edges []Edge) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %d %d\n", n, len(edges)); err != nil {
		return err
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeListText parses the text edge-list format. Lines starting with
// '#' or '%' are comments; the first comment may carry "n m". If no
// header is present, n is inferred as max id + 1.
func ReadEdgeListText(r io.Reader) (n int64, edges []Edge, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n = -1
	var maxID int64 = -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' || line[0] == '%' {
			fields := strings.Fields(strings.TrimLeft(line, "#% "))
			if n < 0 && len(fields) >= 2 {
				hn, err1 := strconv.ParseInt(fields[0], 10, 64)
				_, err2 := strconv.ParseInt(fields[1], 10, 64)
				if err1 == nil && err2 == nil {
					n = hn
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("graph: malformed edge line %q", line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("graph: bad vertex id %q: %w", fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("graph: bad vertex id %q: %w", fields[1], err)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if n < 0 {
		n = maxID + 1
	}
	if maxID >= n {
		return 0, nil, fmt.Errorf("graph: vertex id %d exceeds declared n %d", maxID, n)
	}
	return n, edges, nil
}

// WriteEdgeListBinary writes the binary edge-list format.
func WriteEdgeListBinary(w io.Writer, n int64, edges []Edge) error {
	bw := bufio.NewWriter(w)
	header := []int64{binaryMagic, binaryVersion, n, int64(len(edges))}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	buf := make([]byte, 16)
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(e.U))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(e.V))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeListBinary parses the binary edge-list format.
func ReadEdgeListBinary(r io.Reader) (n int64, edges []Edge, err error) {
	br := bufio.NewReader(r)
	var header [4]int64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return 0, nil, fmt.Errorf("graph: short binary header: %w", err)
		}
	}
	if header[0] != binaryMagic {
		return 0, nil, fmt.Errorf("graph: bad magic %#x", header[0])
	}
	if header[1] != binaryVersion {
		return 0, nil, fmt.Errorf("graph: unsupported version %d", header[1])
	}
	n, m := header[2], header[3]
	if n < 0 || m < 0 {
		return 0, nil, fmt.Errorf("graph: negative header fields n=%d m=%d", n, m)
	}
	// The header's m is untrusted: preallocate at most maxBinaryPrealloc
	// edges and grow as data arrives, so a short file claiming billions
	// of edges fails as truncated instead of exhausting memory.
	edges = make([]Edge, 0, min(m, maxBinaryPrealloc))
	buf := make([]byte, 16)
	for i := int64(0); i < m; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, nil, fmt.Errorf("graph: truncated edge data at %d/%d: %w", i, m, err)
		}
		edges = append(edges, Edge{
			U: int64(binary.LittleEndian.Uint64(buf[0:8])),
			V: int64(binary.LittleEndian.Uint64(buf[8:16])),
		})
	}
	return n, edges, nil
}

// LoadFile reads a graph from path, dispatching on extension: ".bin"
// uses the binary format, anything else the text format. The edge list
// is interpreted as undirected.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var n int64
	var edges []Edge
	if strings.HasSuffix(path, ".bin") {
		n, edges, err = ReadEdgeListBinary(f)
	} else {
		n, edges, err = ReadEdgeListText(f)
	}
	if err != nil {
		return nil, fmt.Errorf("graph: loading %s: %w", path, err)
	}
	return FromEdges(n, edges)
}

// SaveFile writes a graph's undirected edge list to path, dispatching on
// extension like LoadFile.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	edges := g.Edges()
	if strings.HasSuffix(path, ".bin") {
		return WriteEdgeListBinary(f, g.N, edges)
	}
	return WriteEdgeListText(f, g.N, edges)
}

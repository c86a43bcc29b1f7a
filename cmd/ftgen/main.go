// Command ftgen generates graph files in the library's edge-list format
// (readable back via `ftroute ... -graph file:PATH`).
//
// Usage:
//
//	ftgen -graph <spec> [-o out.txt] [-format edgelist|json|dot]
//
// Specs are the same as cmd/ftroute (cycle:N, hypercube:D, ccc:D,
// harary:KxN, gnp:N:P:SEED, regular:N:D:SEED, ...).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftroute"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("ftgen", flag.ContinueOnError)
	var (
		spec   = fs.String("graph", "", "graph specification (see cmd/ftroute)")
		out    = fs.String("o", "", "output path (default stdout)")
		format = fs.String("format", "edgelist", "edgelist|json|dot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("usage: ftgen -graph <spec> [-o out] [-format edgelist|json|dot]")
	}
	g, err := parseGraph(*spec)
	if err != nil {
		return err
	}
	// Render before touching -o, so a bad -format never truncates an
	// existing file.
	var data []byte
	switch *format {
	case "edgelist":
		var b bytes.Buffer
		if err := g.WriteEdgeList(&b); err != nil {
			return err
		}
		data = b.Bytes()
	case "json":
		js, err := json.Marshal(g)
		if err != nil {
			return err
		}
		data = append(js, '\n')
	case "dot":
		data = []byte(g.DOT("G"))
	default:
		return fmt.Errorf("ftgen: unknown format %q", *format)
	}
	if *out == "" {
		_, err := stdout.Write(data)
		return err
	}
	// os.WriteFile reports the Close error too, so a delayed write
	// failure does not pass for success.
	return os.WriteFile(*out, data, 0o666)
}

// parseGraph mirrors cmd/ftroute's generator specs (kept local: main
// packages cannot import each other).
func parseGraph(spec string) (*ftroute.Graph, error) {
	parts := strings.Split(spec, ":")
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	dims := func(s string) (int, int, error) {
		xy := strings.Split(s, "x")
		if len(xy) != 2 {
			return 0, 0, fmt.Errorf("ftgen: bad dimensions %q (want RxC)", s)
		}
		return atoi(xy[0]), atoi(xy[1]), nil
	}
	switch parts[0] {
	case "cycle":
		return ftroute.Cycle(atoi(parts[1]))
	case "path":
		return ftroute.PathGraph(atoi(parts[1]))
	case "grid":
		r, c, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.Grid(r, c)
	case "torus":
		r, c, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.Torus(r, c)
	case "hypercube":
		return ftroute.Hypercube(atoi(parts[1]))
	case "ccc":
		return ftroute.CCC(atoi(parts[1]))
	case "butterfly":
		return ftroute.WrappedButterfly(atoi(parts[1]))
	case "debruijn":
		return ftroute.DeBruijn(atoi(parts[1]))
	case "harary":
		k, n, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.Harary(k, n)
	case "gp":
		n, k, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.GeneralizedPetersen(n, k)
	case "wheel":
		return ftroute.Wheel(atoi(parts[1]))
	case "petersen":
		return ftroute.Petersen(), nil
	case "icosahedron":
		return ftroute.Icosahedron(), nil
	case "gnp":
		if len(parts) != 4 {
			return nil, fmt.Errorf("ftgen: gnp wants gnp:N:P:SEED")
		}
		p, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, err
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, err
		}
		return ftroute.Gnp(atoi(parts[1]), p, seed)
	case "regular":
		if len(parts) != 4 {
			return nil, fmt.Errorf("ftgen: regular wants regular:N:D:SEED")
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, err
		}
		return ftroute.RandomRegular(atoi(parts[1]), atoi(parts[2]), seed)
	default:
		return nil, fmt.Errorf("ftgen: unknown graph family %q", parts[0])
	}
}

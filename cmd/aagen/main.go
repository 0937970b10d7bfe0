// Command aagen generates workload graphs in edge-list or Pajek format.
//
// Usage:
//
//	aagen -kind ba -n 2000 -m 3 -seed 1 -format pajek > graph.net
//
// Kinds: ba (Barabási–Albert scale-free), sbm (planted partition), rmat.
package main

import (
	"flag"
	"fmt"
	"os"

	"anytime/internal/gen"
	"anytime/internal/graph"
)

func main() {
	var (
		kind    = flag.String("kind", "ba", "generator: ba | sbm | rmat")
		n       = flag.Int("n", 2000, "vertices (ba/sbm)")
		m       = flag.Int("m", 3, "ba: edges per new vertex; rmat: total edges")
		c       = flag.Int("c", 8, "sbm: communities")
		pin     = flag.Float64("pin", 0.1, "sbm: intra-community edge probability")
		pout    = flag.Float64("pout", 0.005, "sbm: inter-community edge probability")
		scale   = flag.Int("scale", 11, "rmat: log2 of vertex count")
		minW    = flag.Int("minw", 0, "minimum edge weight (0 = unit weights)")
		maxW    = flag.Int("maxw", 0, "maximum edge weight")
		seed    = flag.Int64("seed", 1, "random seed")
		format  = flag.String("format", "edgelist", "output: edgelist | pajek")
		connect = flag.Bool("connect", true, "join components so the graph is connected")
	)
	flag.Parse()
	w := gen.Weights{Min: graph.Weight(*minW), Max: graph.Weight(*maxW)}

	var g *graph.Graph
	var err error
	switch *kind {
	case "ba":
		g, err = gen.BarabasiAlbert(*n, *m, w, *seed)
	case "sbm":
		g, _, err = gen.PlantedPartition(*n, *c, *pin, *pout, w, *seed)
	case "rmat":
		g, err = gen.RMAT(*scale, *m, 0.57, 0.19, 0.19, w, *seed)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aagen: %v\n", err)
		os.Exit(1)
	}
	if *connect {
		gen.Connectify(g, *seed)
	}
	switch *format {
	case "edgelist":
		err = graph.WriteEdgeList(os.Stdout, g)
	case "pajek":
		err = graph.WritePajek(os.Stdout, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "aagen: %d vertices, %d edges (%s)\n",
		g.NumVertices(), g.NumEdges(), *kind)
}

package main

import (
	"fmt"
	"time"

	"anytime/internal/core"
)

// sizes are the constants of one scale. "full" is what BENCHMARK.json's
// command measures; "tiny" is for the smoke test only. A full-size
// operation is sized so that a 10 s run holds enough of them for a steady
// median on the 2-core reference machine (see README.md).
type sizes struct {
	name string

	staticN int // static_dense: BA vertices (m=3), P=4, Workers=1

	absorbN        int // absorb_*: BA vertices of the warm-started base graph
	absorbBatch    int // vertices per community batch (1.5 anchors each)
	cutedgeBatches int // batches absorbed per cycle under CutEdge-PS
	repartBatches  int // batches absorbed per cycle under Repartition-S

	clusterN     int // cluster_tcp: BA vertices, 2 ranks over loopback TCP
	clusterBatch int // vertices in each of the two batches queued on rank 0

	wireCols       int // wire_exchange: width of the distance rows shipped
	wireBulkBytes  int // bytes of deltas per direction per bulk round
	wireBulkRounds int // bulk rounds per cycle
	wireCtlRounds  int // control rounds (vote + decision broadcast) per cycle

	serveN       int           // serve_mixed: BA vertices, engine P=1
	serveJoins   int           // joins per posted batch (2 attach edges each)
	servePeriod  time.Duration // one batch is due every period
	servePeriods int           // periods per cycle
	serveQPS     int           // open-loop query rate

	probe time.Duration // time spent in each kernel probe
}

var full = sizes{
	name:    "full",
	staticN: 1000,
	absorbN: 1000, absorbBatch: 16, cutedgeBatches: 8, repartBatches: 6,
	clusterN: 800, clusterBatch: 16,
	wireCols: 2000, wireBulkBytes: 1 << 20, wireBulkRounds: 16, wireCtlRounds: 200,
	serveN: 1000, serveJoins: 8, servePeriod: 250 * time.Millisecond, servePeriods: 8, serveQPS: 200,
	probe: 60 * time.Millisecond,
}

var tiny = sizes{
	name:    "tiny",
	staticN: 200,
	absorbN: 200, absorbBatch: 8, cutedgeBatches: 2, repartBatches: 2,
	clusterN: 200, clusterBatch: 4,
	wireCols: 1024, wireBulkBytes: 64 << 10, wireBulkRounds: 2, wireCtlRounds: 8,
	serveN: 1000, serveJoins: 8, servePeriod: 40 * time.Millisecond, servePeriods: 3, serveQPS: 100,
	probe: 2 * time.Millisecond,
}

func sizesByName(name string) (sizes, error) {
	switch name {
	case "full":
		return full, nil
	case "tiny":
		return tiny, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (full, tiny)", name)
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "static_dense":
		return &staticDense{env: e}, nil
	case "absorb_cutedge":
		return &absorb{env: e, strategy: core.CutEdgePS, perCycle: e.size.cutedgeBatches}, nil
	case "absorb_repartition":
		return &absorb{env: e, strategy: core.RepartitionS, perCycle: e.size.repartBatches}, nil
	case "cluster_tcp":
		return &clusterTCP{env: e}, nil
	case "wire_exchange":
		return &wireExchange{env: e}, nil
	case "serve_mixed":
		return &serveMixed{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

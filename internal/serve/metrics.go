package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"anytime/internal/core"
	"anytime/internal/obs"
)

// This file builds the server's Prometheus registry: the serving counters,
// engine cost totals (kept monotone across driver restarts by rebasing),
// per-processor load gauges, the live load-imbalance gauge (the paper's
// Fig. 5 metric, per RC step), and per-route HTTP latency histograms.

// engineTotals is the subset of core.Metrics exported as Prometheus
// counters. Engine metrics reset when the driver restarts from a
// checkpoint, so the registry renders base + view totals, where base
// accumulates what each dead engine had counted beyond its replacement.
type engineTotals struct {
	rcSteps       float64
	virtualSec    float64
	ddOps         float64
	iaOps         float64
	rcOps         float64
	changeOps     float64
	commMessages  float64
	commBytes     float64
	commResends   float64
	commDropped   float64
	commFailed    float64
	crashes       float64
	recoveries    float64
	shardsWritten float64
	shardBytes    float64
}

func totalsOf(m core.Metrics) engineTotals {
	return engineTotals{
		rcSteps:       float64(m.RCSteps),
		virtualSec:    m.VirtualTime.Seconds(),
		ddOps:         float64(m.DDOps),
		iaOps:         float64(m.IAOps),
		rcOps:         float64(m.RCOps),
		changeOps:     float64(m.ChangeOps),
		commMessages:  float64(m.Comm.Messages),
		commBytes:     float64(m.Comm.Bytes),
		commResends:   float64(m.Comm.Resends),
		commDropped:   float64(m.Comm.Dropped),
		commFailed:    float64(m.Comm.Failed),
		crashes:       float64(m.Crashes),
		recoveries:    float64(m.Recoveries),
		shardsWritten: float64(m.ShardsWritten),
		shardBytes:    float64(m.ShardBytes),
	}
}

func (t engineTotals) sub(o engineTotals) engineTotals {
	return engineTotals{
		rcSteps:       t.rcSteps - o.rcSteps,
		virtualSec:    t.virtualSec - o.virtualSec,
		ddOps:         t.ddOps - o.ddOps,
		iaOps:         t.iaOps - o.iaOps,
		rcOps:         t.rcOps - o.rcOps,
		changeOps:     t.changeOps - o.changeOps,
		commMessages:  t.commMessages - o.commMessages,
		commBytes:     t.commBytes - o.commBytes,
		commResends:   t.commResends - o.commResends,
		commDropped:   t.commDropped - o.commDropped,
		commFailed:    t.commFailed - o.commFailed,
		crashes:       t.crashes - o.crashes,
		recoveries:    t.recoveries - o.recoveries,
		shardsWritten: t.shardsWritten - o.shardsWritten,
		shardBytes:    t.shardBytes - o.shardBytes,
	}
}

func (t engineTotals) add(o engineTotals) engineTotals {
	return engineTotals{
		rcSteps:       t.rcSteps + o.rcSteps,
		virtualSec:    t.virtualSec + o.virtualSec,
		ddOps:         t.ddOps + o.ddOps,
		iaOps:         t.iaOps + o.iaOps,
		rcOps:         t.rcOps + o.rcOps,
		changeOps:     t.changeOps + o.changeOps,
		commMessages:  t.commMessages + o.commMessages,
		commBytes:     t.commBytes + o.commBytes,
		commResends:   t.commResends + o.commResends,
		commDropped:   t.commDropped + o.commDropped,
		commFailed:    t.commFailed + o.commFailed,
		crashes:       t.crashes + o.crashes,
		recoveries:    t.recoveries + o.recoveries,
		shardsWritten: t.shardsWritten + o.shardsWritten,
		shardBytes:    t.shardBytes + o.shardBytes,
	}
}

// serverMetrics owns the registry and the gauges the driver updates.
type serverMetrics struct {
	reg *obs.Registry

	// base rebases engine totals across restarts: rendered counter = base +
	// latest published View's totals. Written by restart() on the driver
	// goroutine, read by scrapes.
	mu   sync.Mutex
	base engineTotals

	// Step-quality gauges, updated by onStep from StepStats.
	imbalance       *obs.Gauge
	stepRows        *obs.Gauge
	stepDirty       *obs.Gauge
	stepConverged   *obs.Gauge
	stepDirtyFrac   *obs.Gauge
	stepBoundGap    *obs.Gauge
	stepWidth       *obs.Gauge
	frontierDensity *obs.Gauge
	maskedOps       *obs.Gauge

	// Per-processor gauges, indexed by processor.
	procRows     []*obs.Gauge
	procDirty    []*obs.Gauge
	procBoundary []*obs.Gauge
	procOps      []*obs.Gauge
	procBusy     []*obs.Gauge

	httpLatency map[string]*obs.Histogram
}

// newServerMetrics wires the registry for a server with P processors.
func newServerMetrics(s *Server, p int) *serverMetrics {
	m := &serverMetrics{reg: obs.NewRegistry(), httpLatency: map[string]*obs.Histogram{}}
	reg := m.reg
	c := &s.counters

	reg.RegisterCounter(&c.QueriesServed, "aa_queries_served_total",
		"Read queries answered (closeness, top-k, snapshot metadata).", "")
	reg.RegisterCounter(&c.EventsAdmitted, "aa_events_admitted_total",
		"Dynamic events accepted into the admission queue.", "")
	reg.RegisterCounter(&c.EventsRejectedBackpressure, "aa_events_rejected_total",
		"Dynamic events refused from the admission queue, by cause.",
		obs.Labels("reason", "backpressure"))
	reg.RegisterCounter(&c.EventsRejectedInvalid, "aa_events_rejected_total",
		"Dynamic events refused from the admission queue, by cause.",
		obs.Labels("reason", "invalid"))
	reg.RegisterCounter(&c.EventsIngested, "aa_events_ingested_total",
		"Admitted events handed to the engine's change queue.", "")
	reg.RegisterCounter(&c.EventsDropped, "aa_events_dropped_total",
		"Admitted events the engine refused (normally zero).", "")
	reg.RegisterCounter(&c.EventsLost, "aa_events_lost_total",
		"Events dropped by engine restarts (applied or admitted after the restored checkpoint).", "")
	reg.RegisterCounter(&c.Publishes, "aa_publishes_total",
		"View publications (equals the latest snapshot version).", "")
	reg.RegisterCounter(&c.EngineRestarts, "aa_engine_restarts_total",
		"Driver recoveries from a failed RC step via checkpoint restore.", "")
	reg.RegisterCounter(&c.CheckpointsWritten, "aa_checkpoints_written_total",
		"Periodic and shutdown checkpoints written.", "")

	reg.GaugeFunc("aa_pending_events",
		"Events in the admission queue.", "",
		func() float64 { return float64(c.PendingEvents.Load()) })
	reg.GaugeFunc("aa_engine_queued_events",
		"Events in the engine's internal change queue.", "",
		func() float64 { return float64(c.EngineQueued.Load()) })
	reg.GaugeFunc("aa_queue_depth",
		"Total ingestion backlog: admission queue plus engine change queue.", "",
		func() float64 { return float64(c.QueueDepth()) })

	view := func() *View { return s.store.load() }
	reg.GaugeFunc("aa_snapshot_version", "Version of the latest published View.", "",
		func() float64 {
			if v := view(); v != nil {
				return float64(v.Version)
			}
			return 0
		})
	reg.GaugeFunc("aa_snapshot_converged", "1 when the latest View is exact, else 0.", "",
		func() float64 {
			if v := view(); v != nil && v.Converged {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("aa_graph_vertices", "Vertices in the latest published View.", "",
		func() float64 {
			if v := view(); v != nil {
				return float64(v.Vertices)
			}
			return 0
		})
	reg.GaugeFunc("aa_graph_edges", "Edges in the latest published View.", "",
		func() float64 {
			if v := view(); v != nil {
				return float64(v.Edges)
			}
			return 0
		})

	// Engine totals, rebased so restarts never step a counter backwards.
	totals := func() engineTotals {
		m.mu.Lock()
		base := m.base
		m.mu.Unlock()
		if v := view(); v != nil {
			return base.add(totalsOf(v.Metrics))
		}
		return base
	}
	engCounter := func(name, help, labels string, pick func(engineTotals) float64) {
		reg.CounterFunc(name, help, labels, func() float64 { return pick(totals()) })
	}
	engCounter("aa_engine_rc_steps_total",
		"Recombination steps performed across engine generations.", "",
		func(t engineTotals) float64 { return t.rcSteps })
	engCounter("aa_engine_virtual_seconds_total",
		"Simulated LogP cluster time elapsed, in seconds.", "",
		func(t engineTotals) float64 { return t.virtualSec })
	opsHelp := "Relaxation/heap operations, by engine phase."
	engCounter("aa_engine_ops_total", opsHelp, obs.Labels("phase", "dd"),
		func(t engineTotals) float64 { return t.ddOps })
	engCounter("aa_engine_ops_total", opsHelp, obs.Labels("phase", "ia"),
		func(t engineTotals) float64 { return t.iaOps })
	engCounter("aa_engine_ops_total", opsHelp, obs.Labels("phase", "rc"),
		func(t engineTotals) float64 { return t.rcOps })
	engCounter("aa_engine_ops_total", opsHelp, obs.Labels("phase", "change"),
		func(t engineTotals) float64 { return t.changeOps })
	engCounter("aa_comm_messages_total",
		"Logical messages exchanged on the simulated cluster.", "",
		func(t engineTotals) float64 { return t.commMessages })
	engCounter("aa_comm_bytes_total",
		"Payload bytes exchanged on the simulated cluster.", "",
		func(t engineTotals) float64 { return t.commBytes })
	engCounter("aa_comm_resends_total",
		"Retransmissions after injected drops/corruption.", "",
		func(t engineTotals) float64 { return t.commResends })
	engCounter("aa_comm_dropped_total",
		"Delivery attempts lost in the injected-fault network.", "",
		func(t engineTotals) float64 { return t.commDropped })
	engCounter("aa_comm_failed_total",
		"Messages abandoned after the resend budget.", "",
		func(t engineTotals) float64 { return t.commFailed })
	engCounter("aa_engine_crashes_total",
		"Scheduled processor crashes applied.", "",
		func(t engineTotals) float64 { return t.crashes })
	engCounter("aa_engine_recoveries_total",
		"Processor rejoin protocols completed.", "",
		func(t engineTotals) float64 { return t.recoveries })
	engCounter("aa_engine_shards_written_total",
		"Recovery shards serialized.", "",
		func(t engineTotals) float64 { return t.shardsWritten })
	engCounter("aa_engine_shard_bytes_total",
		"Total bytes of recovery shards written.", "",
		func(t engineTotals) float64 { return t.shardBytes })

	// Convergence-quality telemetry of the most recent RC step.
	m.imbalance = reg.Gauge("aa_step_imbalance",
		"Per-processor busy-time imbalance (max/mean) of the last RC step; 1.0 is perfectly balanced.", "")
	m.imbalance.Set(1)
	m.stepRows = reg.Gauge("aa_step_rows",
		"DV rows across all processors after the last RC step.", "")
	m.stepDirty = reg.Gauge("aa_step_dirty_rows",
		"Rows still carrying un-propagated content after the last RC step.", "")
	m.stepConverged = reg.Gauge("aa_step_converged_rows",
		"Rows with no un-propagated content after the last RC step.", "")
	m.stepDirtyFrac = reg.Gauge("aa_step_dirty_fraction",
		"DirtyRows/TotalRows after the last RC step — the row-granular convergence gap of the anytime solution.", "")
	m.stepBoundGap = reg.Gauge("aa_step_bound_gap",
		"Fraction of all DV cells still inside a change frontier after the last RC step — 0 at an exact fixpoint.", "")
	m.stepWidth = reg.Gauge("aa_step_max_delta_width",
		"Widest boundary delta shipped in the last RC step, in columns.", "")
	m.frontierDensity = reg.Gauge("aa_frontier_density",
		"Change-frontier bit density within dirty rows after the last RC step (the masked-kernel cutover quantity); 0 when no row is dirty.", "")
	m.maskedOps = reg.Gauge("aa_step_masked_ops",
		"Relax/refine operations performed through frontier-masked sweeps in the last RC step.", "")

	m.procRows = make([]*obs.Gauge, p)
	m.procDirty = make([]*obs.Gauge, p)
	m.procBoundary = make([]*obs.Gauge, p)
	m.procOps = make([]*obs.Gauge, p)
	m.procBusy = make([]*obs.Gauge, p)
	for i := 0; i < p; i++ {
		l := obs.Labels("proc", strconv.Itoa(i))
		m.procRows[i] = reg.Gauge("aa_proc_rows", "DV rows owned by the processor.", l)
		m.procDirty[i] = reg.Gauge("aa_proc_dirty_rows", "Dirty rows on the processor after the last RC step.", l)
		m.procBoundary[i] = reg.Gauge("aa_proc_boundary_rows", "Local-boundary vertices on the processor.", l)
		m.procOps[i] = reg.Gauge("aa_proc_relax_ops", "Relax/refine operations by the processor in the last RC step.", l)
		m.procBusy[i] = reg.Gauge("aa_proc_busy_seconds", "Virtual busy time accrued by the processor in the last RC step.", l)
	}
	return m
}

// observeStep publishes one step's convergence telemetry (driver goroutine).
func (m *serverMetrics) observeStep(st core.StepStats) {
	m.imbalance.Set(st.Imbalance)
	m.stepRows.SetInt(int64(st.TotalRows))
	m.stepDirty.SetInt(int64(st.DirtyRows))
	m.stepConverged.SetInt(int64(st.TotalRows - st.DirtyRows))
	if st.TotalRows > 0 {
		m.stepDirtyFrac.Set(float64(st.DirtyRows) / float64(st.TotalRows))
	} else {
		m.stepDirtyFrac.Set(0)
	}
	m.stepBoundGap.Set(st.BoundGap)
	m.stepWidth.SetInt(int64(st.MaxDeltaWidth))
	// One quality triple (rows, dirty rows, frontier bits), two gauges:
	// bound_gap is bits / all cells, frontier_density is bits / cells of the
	// dirty rows only — the same pair aa_rank_bound_gap and
	// aa_rank_frontier_density export per rank.
	if st.DirtyRows > 0 {
		m.frontierDensity.Set(st.BoundGap * float64(st.TotalRows) / float64(st.DirtyRows))
	} else {
		m.frontierDensity.Set(0)
	}
	m.maskedOps.SetInt(st.MaskedOps)
	for i := range m.procRows {
		if i >= len(st.ProcRows) {
			break
		}
		m.procRows[i].SetInt(int64(st.ProcRows[i]))
		m.procDirty[i].SetInt(int64(st.ProcDirty[i]))
		m.procBoundary[i].SetInt(int64(st.ProcBoundary[i]))
		m.procOps[i].SetInt(st.ProcRelaxOps[i])
		m.procBusy[i].Set(st.ProcBusy[i].Seconds())
	}
}

// rebase folds a dead engine's totals beyond its replacement's into the
// base, so the rendered engine counters stay monotone across a restart.
func (m *serverMetrics) rebase(dead, restored core.Metrics) {
	d := totalsOf(dead).sub(totalsOf(restored))
	m.mu.Lock()
	m.base = m.base.add(d)
	m.mu.Unlock()
}

// latency returns the request-latency histogram for a route, creating it on
// first use (Handler construction time, single-goroutine).
func (m *serverMetrics) latency(route string) *obs.Histogram {
	h, ok := m.httpLatency[route]
	if !ok {
		h = m.reg.Histogram("aa_http_request_seconds",
			"HTTP request latency by route.",
			obs.Labels("route", route), obs.DefaultLatencyBounds)
		m.httpLatency[route] = h
	}
	return h
}

// instrument wraps a handler with its route's latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.latency(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

// Registry exposes the server's metrics registry (for embedding the
// exposition into a larger process or scraping it in tests).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Aggregator is the cluster half of the observability plane: it scrapes N
// per-rank /metrics endpoints, injects a rank label into every series, and
// republishes one merged exposition plus computed cross-rank series — the
// paper's Fig. 5 load imbalance measured across real OS processes, cluster
// liveness, anytime-quality rollups, and per-outage-episode degraded-step
// counters.
//
// A rank that is down mid-scrape is stale-marked, not dropped: its last
// good families keep being republished (so dashboards hold the final
// pre-crash state through an outage) with aa_cluster_scrape_stale{rank}=1
// flagging the staleness. The fetch function is pluggable so tests can
// drive the merge logic without HTTP.
type Aggregator struct {
	ranks   int
	fetch   func(ctx context.Context, rank int) (io.ReadCloser, error)
	timeout time.Duration

	mu            sync.Mutex
	last          []rankScrape
	episodes      []episodeState
	inOutage      bool
	degradedTotal float64 // cluster degraded-step total at the last scrape
}

// rankScrape is the retained state for one rank.
type rankScrape struct {
	fams  []TextFamily       // last good families, rank-labeled
	flat  map[string]float64 // flat view of fams for computed series
	ok    bool               // most recent scrape succeeded
	ever  bool               // at least one scrape ever succeeded
	stamp time.Time          // when fams were last refreshed
}

// episodeState tracks one outage episode: from the scrape where any rank
// first reported degraded mode to the scrape where none did. Degraded
// steps are attributed to the open episode as the delta of the cluster-sum
// aa_rank_degraded_steps_total against the episode's baseline.
type episodeState struct {
	baseline float64 // cluster degraded-step total when the episode opened
	steps    float64 // degraded steps attributed so far
	open     bool
}

// NewAggregator builds an aggregator over `ranks` endpoints. fetch returns
// the exposition body for one rank (an http.Get in production, a stub in
// tests); a nil timeout field defaults to 2s per rank.
func NewAggregator(ranks int, timeout time.Duration, fetch func(ctx context.Context, rank int) (io.ReadCloser, error)) *Aggregator {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Aggregator{
		ranks:   ranks,
		fetch:   fetch,
		timeout: timeout,
		last:    make([]rankScrape, ranks),
	}
}

// NewHTTPAggregator builds an aggregator that scrapes http://addr/metrics
// for each rank address (the obs ports from the mesh manifest).
func NewHTTPAggregator(addrs []string, timeout time.Duration) *Aggregator {
	client := &http.Client{}
	return NewAggregator(len(addrs), timeout, func(ctx context.Context, rank int) (io.ReadCloser, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addrs[rank]+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("obs: rank %d scrape: %s", rank, resp.Status)
		}
		return resp.Body, nil
	})
}

// Scrape polls every rank concurrently, updates the retained per-rank
// state, and advances the outage-episode machine. Down ranks keep their
// last good series (stale-marked); ranks that never answered contribute
// nothing yet.
func (a *Aggregator) Scrape(ctx context.Context) {
	type result struct {
		rank int
		fams []TextFamily
		err  error
	}
	ch := make(chan result, a.ranks)
	for i := 0; i < a.ranks; i++ {
		go func(rank int) {
			sctx, cancel := context.WithTimeout(ctx, a.timeout)
			defer cancel()
			body, err := a.fetch(sctx, rank)
			if err != nil {
				ch <- result{rank: rank, err: err}
				return
			}
			fams, err := ParseFamilies(body)
			body.Close()
			ch <- result{rank: rank, fams: fams, err: err}
		}(i)
	}

	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < a.ranks; i++ {
		res := <-ch
		rs := &a.last[res.rank]
		if res.err != nil {
			rs.ok = false
			continue
		}
		label := strconv.Itoa(res.rank)
		flat := map[string]float64{}
		for fi := range res.fams {
			for si := range res.fams[fi].Samples {
				s := &res.fams[fi].Samples[si]
				s.Labels = InjectLabel(s.Labels, "rank", label)
				flat[s.Key()] = s.Value
			}
		}
		rs.fams, rs.flat, rs.ok, rs.ever, rs.stamp = res.fams, flat, true, true, now
	}
	a.advanceEpisodes()
}

// rankSeries reads one rank's value for name{rank="i"<,labels>}.
func (a *Aggregator) rankSeries(rank int, name, labels string) (float64, bool) {
	rs := &a.last[rank]
	if !rs.ever {
		return 0, false
	}
	v, ok := rs.flat[name+InjectLabel(labels, "rank", strconv.Itoa(rank))]
	return v, ok
}

// advanceEpisodes runs the outage-episode state machine against the
// current retained state. Callers hold a.mu.
func (a *Aggregator) advanceEpisodes() {
	anyDegraded := false
	var clusterDegradedSteps float64
	for i := 0; i < a.ranks; i++ {
		if v, ok := a.rankSeries(i, "aa_rank_degraded", ""); ok && v != 0 {
			anyDegraded = true
		}
		if v, ok := a.rankSeries(i, "aa_rank_degraded_steps_total", ""); ok {
			clusterDegradedSteps += v
		}
	}
	if anyDegraded && !a.inOutage {
		// Steps counted since the previous scrape belong to this episode,
		// so the baseline is the total as of the last scrape, not now.
		a.episodes = append(a.episodes, episodeState{baseline: a.degradedTotal, open: true})
	}
	a.inOutage = anyDegraded
	if n := len(a.episodes); n > 0 && a.episodes[n-1].open {
		ep := &a.episodes[n-1]
		if d := clusterDegradedSteps - ep.baseline; d > ep.steps {
			ep.steps = d
		}
		if !anyDegraded {
			ep.open = false
		}
	}
	a.degradedTotal = clusterDegradedSteps
}

// WriteTo renders the merged exposition: computed cluster series first,
// then every rank's series in rank order. Safe to call concurrently with
// Scrape.
func (a *Aggregator) WriteTo(w io.Writer) (int64, error) {
	a.mu.Lock()
	computed := a.computedLocked()
	inputs := make([][]TextFamily, 0, a.ranks+1)
	inputs = append(inputs, computed)
	for i := range a.last {
		if a.last[i].ever {
			inputs = append(inputs, a.last[i].fams)
		}
	}
	merged := MergeFamilies(inputs...)
	a.mu.Unlock()

	cw := &countWriter{w: w}
	err := WriteFamilies(cw, merged)
	return cw.n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// computedLocked builds the cross-rank series. Callers hold a.mu.
func (a *Aggregator) computedLocked() []TextFamily {
	up := 0
	var busy []time.Duration
	var rows, dirty, converged, frontierBits float64
	haveDensity := false
	var maxStep, minStep float64
	haveStep := false
	staleSamples := make([]TextSample, 0, a.ranks)
	for i := 0; i < a.ranks; i++ {
		rs := &a.last[i]
		if rs.ok {
			up++
		}
		stale := 0.0
		if !rs.ok && rs.ever {
			stale = 1
		}
		staleSamples = append(staleSamples, TextSample{
			Name:   "aa_cluster_scrape_stale",
			Labels: Labels("rank", strconv.Itoa(i)),
			Value:  stale,
		})
		if !rs.ever {
			continue
		}
		if v, ok := a.rankSeries(i, "aa_rank_step_busy_seconds", ""); ok {
			busy = append(busy, time.Duration(v*float64(time.Second)))
		}
		if v, ok := a.rankSeries(i, "aa_rank_step", ""); ok {
			if !haveStep || v > maxStep {
				maxStep = v
			}
			if !haveStep || v < minStep {
				minStep = v
			}
			haveStep = true
		}
		r, _ := a.rankSeries(i, "aa_rank_rows", "")
		rows += r
		d, _ := a.rankSeries(i, "aa_rank_dirty_rows", "")
		dirty += d
		if v, ok := a.rankSeries(i, "aa_rank_converged_rows", ""); ok {
			converged += v
		}
		// A rank's density is bits / (dirty rows x cols): weighting it by
		// the rank's dirty rows sums the bits, and the cluster density is
		// that sum over the cluster's dirty cells.
		if v, ok := a.rankSeries(i, "aa_rank_frontier_density", ""); ok {
			haveDensity = true
			frontierBits += v * d
		}
	}

	gauge := func(name, help string, samples ...TextSample) TextFamily {
		return TextFamily{Name: name, Help: help, Type: "gauge", Samples: samples}
	}
	one := func(name, help string, v float64) TextFamily {
		return gauge(name, help, TextSample{Name: name, Value: v})
	}

	fams := []TextFamily{
		one("aa_cluster_ranks_total", "Ranks in the mesh manifest.", float64(a.ranks)),
		one("aa_cluster_ranks_up", "Ranks that answered the most recent scrape.", float64(up)),
		gauge("aa_cluster_scrape_stale", "1 when the rank missed the last scrape and its series are republished from the last good state.", staleSamples...),
		one("aa_step_imbalance", "Paper Fig. 5 live: max/mean per-rank busy seconds of the latest RC step, measured across OS processes.", Imbalance(busy)),
	}
	if haveStep {
		fams = append(fams,
			one("aa_cluster_step", "Highest RC step any rank has reported.", maxStep),
			one("aa_cluster_step_skew", "Spread between the fastest and slowest rank's reported RC step.", maxStep-minStep),
		)
	}
	if rows > 0 {
		fams = append(fams,
			one("aa_cluster_rows", "Distance-matrix rows across all ranks.", rows),
			one("aa_cluster_dirty_rows", "Dirty (unconverged) rows across all ranks.", dirty),
			one("aa_cluster_dirty_fraction", "Cluster-wide dirty-row fraction: the anytime bound-quality proxy.", dirty/rows),
			one("aa_cluster_converged_rows", "Converged rows across all ranks.", converged),
		)
	}
	if haveDensity {
		density := 0.0
		if dirty > 0 {
			density = frontierBits / dirty
		}
		fams = append(fams,
			one("aa_cluster_frontier_density", "Change-frontier bit density within the dirty rows of all ranks (per-rank densities weighted by dirty rows).", density),
		)
	}

	epSamples := make([]TextSample, 0, len(a.episodes))
	for i, ep := range a.episodes {
		epSamples = append(epSamples, TextSample{
			Name:   "aa_cluster_episode_degraded_steps",
			Labels: Labels("episode", strconv.Itoa(i+1)),
			Value:  ep.steps,
		})
	}
	sort.SliceStable(epSamples, func(i, j int) bool { return epSamples[i].Labels < epSamples[j].Labels })
	fams = append(fams,
		one("aa_cluster_outage_episodes_total", "Outage episodes observed: scrapes where any rank entered degraded mode.", float64(len(a.episodes))),
	)
	if len(epSamples) > 0 {
		fams = append(fams, TextFamily{
			Name: "aa_cluster_episode_degraded_steps", Type: "gauge",
			Help:    "Degraded RC steps attributed to each outage episode (cluster sum).",
			Samples: epSamples,
		})
	}
	return fams
}

// ServeHTTP scrapes every rank and answers with the merged exposition —
// mount at /metrics on the aggregator port.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	a.Scrape(req.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.WriteTo(w)
}

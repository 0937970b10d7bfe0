package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// fakeRank is a scriptable per-rank exposition source: each Scrape serves
// the rank's current text, or an error when down.
type fakeRank struct {
	text string
	down bool
}

func fakeFetch(ranks []*fakeRank) func(ctx context.Context, rank int) (io.ReadCloser, error) {
	return func(_ context.Context, rank int) (io.ReadCloser, error) {
		r := ranks[rank]
		if r.down {
			return nil, errors.New("connection refused")
		}
		return io.NopCloser(strings.NewReader(r.text)), nil
	}
}

// rankText renders a minimal per-rank exposition with the quality gauges
// the aggregator consumes.
func rankText(rank int, step int, busy float64, rows, dirty int, degraded bool, degradedSteps int) string {
	d := 0
	if degraded {
		d = 1
	}
	return fmt.Sprintf(`# HELP aa_rank_step Current RC step.
# TYPE aa_rank_step gauge
aa_rank_step{rank="%d"} %d
# HELP aa_rank_step_busy_seconds Busy time of the last RC step.
# TYPE aa_rank_step_busy_seconds gauge
aa_rank_step_busy_seconds{rank="%d"} %g
# HELP aa_rank_rows Rows owned.
# TYPE aa_rank_rows gauge
aa_rank_rows{rank="%d"} %d
# HELP aa_rank_dirty_rows Dirty rows.
# TYPE aa_rank_dirty_rows gauge
aa_rank_dirty_rows{rank="%d"} %d
# HELP aa_rank_degraded In degraded mode.
# TYPE aa_rank_degraded gauge
aa_rank_degraded{rank="%d"} %d
# HELP aa_rank_degraded_steps_total Degraded steps.
# TYPE aa_rank_degraded_steps_total counter
aa_rank_degraded_steps_total{rank="%d"} %d
`, rank, step, rank, busy, rank, rows, rank, dirty, rank, d, rank, degradedSteps)
}

func scrapeMap(t *testing.T, a *Aggregator) map[string]float64 {
	t.Helper()
	a.Scrape(context.Background())
	var sb strings.Builder
	if _, err := a.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	m, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("merged exposition does not reparse: %v\n%s", err, sb.String())
	}
	return m
}

// TestAggregatorMergesAndComputes drives a healthy 3-rank scrape and checks
// the merged exposition carries every rank's series rank-labeled plus the
// computed cross-rank gauges.
func TestAggregatorMergesAndComputes(t *testing.T) {
	ranks := []*fakeRank{
		{text: rankText(0, 5, 0.10, 100, 40, false, 0)},
		{text: rankText(1, 5, 0.30, 100, 10, false, 0)},
		{text: rankText(2, 5, 0.20, 100, 10, false, 0)},
	}
	a := NewAggregator(3, 0, fakeFetch(ranks))
	m := scrapeMap(t, a)

	if got := m["aa_cluster_ranks_up"]; got != 3 {
		t.Errorf("ranks_up = %g, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if _, ok := m[fmt.Sprintf(`aa_rank_step{rank="%d"}`, i)]; !ok {
			t.Errorf("merged exposition missing rank %d series", i)
		}
	}
	// busy = {0.1, 0.3, 0.2}: max 0.3, mean 0.2 → imbalance 1.5.
	if got := m["aa_step_imbalance"]; got < 1.49 || got > 1.51 {
		t.Errorf("aa_step_imbalance = %g, want 1.5", got)
	}
	if got := m["aa_cluster_dirty_fraction"]; got != 0.2 {
		t.Errorf("dirty_fraction = %g, want 0.2", got)
	}
	if got := m["aa_cluster_step"]; got != 5 {
		t.Errorf("cluster_step = %g, want 5", got)
	}
}

// TestAggregatorRankDownMidScrape kills a rank between scrapes: its series
// must survive stale-marked at the last good values, ranks_up must drop,
// and the degraded episode the survivors report must open exactly one
// episode with its degraded-step count.
func TestAggregatorRankDownMidScrape(t *testing.T) {
	ranks := []*fakeRank{
		{text: rankText(0, 5, 0.1, 100, 0, false, 0)},
		{text: rankText(1, 5, 0.1, 100, 0, false, 0)},
		{text: rankText(2, 5, 0.1, 100, 0, false, 0)},
	}
	a := NewAggregator(3, 0, fakeFetch(ranks))
	m := scrapeMap(t, a)
	if m["aa_cluster_ranks_up"] != 3 || m[`aa_cluster_scrape_stale{rank="2"}`] != 0 {
		t.Fatalf("healthy scrape wrong: %v", m)
	}

	// Rank 2 dies; survivors enter degraded mode and keep stepping.
	ranks[2].down = true
	ranks[0].text = rankText(0, 8, 0.1, 100, 0, true, 3)
	ranks[1].text = rankText(1, 8, 0.1, 100, 0, true, 3)
	m = scrapeMap(t, a)

	if got := m["aa_cluster_ranks_up"]; got != 2 {
		t.Errorf("ranks_up = %g, want 2", got)
	}
	if got := m[`aa_cluster_scrape_stale{rank="2"}`]; got != 1 {
		t.Errorf("rank 2 not stale-marked: %g", got)
	}
	// Stale, not dropped: rank 2's last good series are still published.
	if got := m[`aa_rank_step{rank="2"}`]; got != 5 {
		t.Errorf("rank 2 last-good step = %g, want 5", got)
	}
	if got := m["aa_cluster_outage_episodes_total"]; got != 1 {
		t.Errorf("episodes = %g, want 1", got)
	}
	if got := m[`aa_cluster_episode_degraded_steps{episode="1"}`]; got != 6 {
		t.Errorf("episode 1 degraded steps = %g, want 6", got)
	}

	// Rank 2 rejoins clean: episode closes, stale mark clears, and a later
	// second outage opens episode 2 instead of extending episode 1.
	ranks[2].down = false
	ranks[2].text = rankText(2, 9, 0.1, 100, 0, false, 0)
	ranks[0].text = rankText(0, 9, 0.1, 100, 0, false, 4)
	ranks[1].text = rankText(1, 9, 0.1, 100, 0, false, 4)
	m = scrapeMap(t, a)
	if m["aa_cluster_ranks_up"] != 3 || m[`aa_cluster_scrape_stale{rank="2"}`] != 0 {
		t.Errorf("rejoin state wrong: up=%g stale=%g", m["aa_cluster_ranks_up"], m[`aa_cluster_scrape_stale{rank="2"}`])
	}
	if got := m[`aa_cluster_episode_degraded_steps{episode="1"}`]; got != 8 {
		t.Errorf("closed episode 1 degraded steps = %g, want 8", got)
	}

	ranks[1].text = rankText(1, 12, 0.1, 100, 0, true, 6)
	m = scrapeMap(t, a)
	if got := m["aa_cluster_outage_episodes_total"]; got != 2 {
		t.Errorf("episodes after second outage = %g, want 2", got)
	}
	if got := m[`aa_cluster_episode_degraded_steps{episode="2"}`]; got != 2 {
		t.Errorf("episode 2 degraded steps = %g, want 2", got)
	}
	if got := m[`aa_cluster_episode_degraded_steps{episode="1"}`]; got != 8 {
		t.Errorf("episode 1 must stay frozen: %g", got)
	}
}

// TestAggregatorNeverSeenRank checks a rank that never answered is counted
// down but contributes no phantom series.
func TestAggregatorNeverSeenRank(t *testing.T) {
	ranks := []*fakeRank{
		{text: rankText(0, 2, 0.1, 50, 5, false, 0)},
		{down: true},
	}
	a := NewAggregator(2, 0, fakeFetch(ranks))
	m := scrapeMap(t, a)
	if got := m["aa_cluster_ranks_up"]; got != 1 {
		t.Errorf("ranks_up = %g, want 1", got)
	}
	// Never-seen ranks are not stale (there is no last-good state to serve).
	if got := m[`aa_cluster_scrape_stale{rank="1"}`]; got != 0 {
		t.Errorf("never-seen rank marked stale: %g", got)
	}
	if _, ok := m[`aa_rank_step{rank="1"}`]; ok {
		t.Errorf("phantom series for never-seen rank")
	}
}

// TestAggregatorFrontierDensityWeightsDirtyRows: a rank's frontier density
// is bits / (dirty rows x cols), so the cluster density weights each rank
// by its dirty rows, not its rows. Rank 0 has 1 dirty row fully set, rank
// 1 has 100 dirty rows with no bits: 1 set row of 101 dirty ones.
func TestAggregatorFrontierDensityWeightsDirtyRows(t *testing.T) {
	density := func(rank int, v float64) string {
		return fmt.Sprintf("# HELP aa_rank_frontier_density Frontier density.\n# TYPE aa_rank_frontier_density gauge\naa_rank_frontier_density{rank=\"%d\"} %g\n", rank, v)
	}
	ranks := []*fakeRank{
		{text: rankText(0, 3, 0.1, 100, 1, false, 0) + density(0, 1)},
		{text: rankText(1, 3, 0.1, 100, 100, false, 0) + density(1, 0)},
	}
	m := scrapeMap(t, NewAggregator(2, 0, fakeFetch(ranks)))
	want := 1.0 / 101
	if got := m["aa_cluster_frontier_density"]; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("aa_cluster_frontier_density = %g, want %g", got, want)
	}
}

// Serving: run the NAI daemon in-process and drive it over HTTP — the
// cmd/naiserve workflow as a library user would embed it. The example
// trains a tiny model, starts the internal/serve handler on an ephemeral
// port, classifies unseen nodes through concurrent /infer calls, re-asks
// for the same hot nodes to show the result cache absorbing repeat
// traffic, grows the graph online with /nodes and /edges (the paper's
// continuously-arriving unseen nodes — note the cache invalidations),
// classifies one of the arrivals, shows the overload layer rejecting an
// over-quota tenant with 429 + Retry-After (requests carry X-Tenant and
// X-Deadline-Ms headers — see ARCHITECTURE.md, "Overload control"), and
// reads /stats.
//
//	go run ./examples/serving
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	// 1. A deployed NAI model (see examples/quickstart for this part).
	ds, err := synth.Generate(synth.Tiny(7))
	if err != nil {
		log.Fatal(err)
	}
	opt := core.DefaultTrainOptions()
	opt.K = 3
	opt.Hidden = []int{32}
	m, err := core.Train(ds.Graph, ds.Split, opt)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := core.NewDeployment(m, ds.Graph)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The daemon: serve NAP_g (gates need no threshold tuning) and cache
	// up to 256 per-node answers across requests (hot nodes skip inference;
	// deltas invalidate exactly — see ARCHITECTURE.md, "Result cache").
	// The overload layer bounds accepted work at 1024 targets, defaults
	// every request to a 2s deadline, and gives the "burst" tenant a
	// 2-token bucket refilling at 1 token/s (tokens are charged per target;
	// these requests ask for one node each) — enough to watch a 429 happen.
	quotas, err := qos.ParseQuotas("burst=1:2")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(dep, serve.Config{
		Opt:             core.InferenceOptions{Mode: core.ModeGate, TMin: 1, TMax: m.K},
		CacheSize:       256,
		MaxPending:      1024,
		DefaultDeadline: 2 * time.Second,
		Quotas:          quotas,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("daemon listening on", base)

	// 3. Concurrent clients: each asks for one unseen node, and each request
	// is its own Infer call on its own goroutine. A client that wants the
	// per-batch costs of Algorithm 1 shared sends its nodes in one request.
	test := ds.Split.Test[:24]
	var wg sync.WaitGroup
	for _, v := range test {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			var out struct {
				Preds  []int `json:"preds"`
				Depths []int `json:"depths"`
			}
			postJSON(base+"/infer", map[string]any{"nodes": []int{v}}, &out)
			fmt.Printf("  node %4d → class %d (exited at depth %d)\n", v, out.Preds[0], out.Depths[0])
		}(v)
	}
	wg.Wait()

	// 3b. The same hot nodes again: every answer now comes from the result
	// cache — no BFS, no propagation, no classifier GEMM.
	for _, v := range test[:8] {
		var out struct {
			Preds []int `json:"preds"`
		}
		postJSON(base+"/infer", map[string]any{"nodes": []int{v}}, &out)
	}

	// 3c. Overload control from the client's side: requests declare who
	// they are (X-Tenant) and how long they can wait (X-Deadline-Ms). The
	// "burst" tenant's token bucket admits two requests, then the third is
	// rejected with 429 and a Retry-After hint — load shedding the client
	// can tell apart from brokenness.
	for i := 1; i <= 3; i++ {
		status, retry := postTenant(base+"/infer",
			map[string]any{"nodes": []int{test[0]}}, "burst", 500)
		if status == http.StatusOK {
			fmt.Printf("  tenant burst, request %d → 200 OK\n", i)
		} else {
			fmt.Printf("  tenant burst, request %d → %d (Retry-After %ss)\n", i, status, retry)
		}
	}

	// 4. Online graph growth: a new node arrives with its features and two
	// edges to known neighbors — no retraining, no full refresh.
	var nodeResp struct {
		FirstID int `json:"first_id"`
	}
	row := make([]float64, ds.Graph.F())
	copy(row, ds.Graph.Features.Row(test[0])) // an arrival resembling a known node
	postJSON(base+"/nodes", map[string]any{
		"features": [][]float64{row},
		"labels":   []int{0},
	}, &nodeResp)
	var edgeResp struct {
		Dirty int `json:"rows_dirtied"`
	}
	postJSON(base+"/edges", map[string]any{
		"edges": [][2]int{{nodeResp.FirstID, test[0]}, {nodeResp.FirstID, test[1]}},
	}, &edgeResp)
	fmt.Printf("appended node %d (+2 edges, %d adjacency rows dirtied)\n",
		nodeResp.FirstID, edgeResp.Dirty)

	var out struct {
		Preds  []int `json:"preds"`
		Depths []int `json:"depths"`
	}
	postJSON(base+"/infer", map[string]any{"nodes": []int{nodeResp.FirstID}}, &out)
	fmt.Printf("new node %d → class %d at depth %d\n", nodeResp.FirstID, out.Preds[0], out.Depths[0])

	// 5. What the daemon observed.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Requests     int64   `json:"requests"`
		InferCalls   int64   `json:"infer_calls"`
		CoalesceRate float64 `json:"coalesce_rate"`
		P50          float64 `json:"latency_p50_us"`
		Nodes        int     `json:"nodes"`
		Rejected     int64   `json:"rejected"`
		Pending      int     `json:"pending_targets"`
		MaxPending   int     `json:"max_pending"`
		Degraded     bool    `json:"degraded"`
		Cache        *struct {
			Hits          int64   `json:"hits"`
			Misses        int64   `json:"misses"`
			Invalidations int64   `json:"invalidations"`
			HitRate       float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d requests in %d Infer calls (%.1fx amortized by the cache), p50 %.0fus, %d nodes\n",
		stats.Requests, stats.InferCalls, stats.CoalesceRate, stats.P50, stats.Nodes)
	if stats.Cache != nil {
		fmt.Printf("cache: %d hits / %d misses (%.0f%% hit rate), %d invalidated by the delta\n",
			stats.Cache.Hits, stats.Cache.Misses, 100*stats.Cache.HitRate, stats.Cache.Invalidations)
	}
	fmt.Printf("overload: %d rejected, %d/%d pending targets, degraded=%v\n",
		stats.Rejected, stats.Pending, stats.MaxPending, stats.Degraded)

	// 6. The Prometheus surface: the same daemon serves text-format metrics
	// at /metrics — request counters by outcome, stage-latency histograms,
	// graph and cache gauges — ready for any scraper. A few sample lines:
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer mresp.Body.Close()
	sc := bufio.NewScanner(mresp.Body)
	printed := 0
	for sc.Scan() && printed < 6 {
		line := sc.Text()
		if strings.HasPrefix(line, "nai_requests_total") ||
			strings.HasPrefix(line, "nai_graph_") ||
			strings.HasPrefix(line, "nai_cache_hit") {
			fmt.Println("  " + line)
			printed++
		}
	}
	fmt.Println("(full scrape at GET /metrics; recent request traces at GET /debug/traces)")
}

// postTenant posts body with X-Tenant and X-Deadline-Ms headers set and
// returns the status code plus any Retry-After hint — 429s are an expected
// outcome here, not an error.
func postTenant(url string, body any, tenant string, deadlineMs int) (status int, retryAfter string) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Deadline-Ms", fmt.Sprint(deadlineMs))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// postJSON posts body and decodes the JSON response into out.
func postJSON(url string, body, out any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// listener is one loopback HTTP server and the goroutine serving it.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return l, nil
}

// close stops the server and waits for its serving goroutine.
func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// stack is the serving system under test, built the way cmd/naiserve builds
// it, in this process: the engine (one deployment, or a router over shard
// workers behind loopback HTTP), the serve daemon in front, and a listener.
type stack struct {
	srv     *serve.Server
	front   *listener
	dep     *core.Deployment // single-deployment stacks
	router  *shard.Router    // sharded stacks
	workers []*listener
	client  *http.Client
}

// serveConfig is cmd/naiserve's defaults except MaxWait: with no more
// connections than cores, a wait window only adds its own timer to every
// number.
func serveConfig(opt core.InferenceOptions, cacheSize int) serve.Config {
	return serve.Config{
		Opt: opt, MaxBatch: 64, MaxWait: 0, CacheSize: cacheSize,
		MaxPending: 4096, DefaultDeadline: 2 * time.Second, MaxDeadline: 30 * time.Second,
	}
}

// buildStack builds workload w's stack on g, which the stack owns from then
// on, and returns once it has answered a first request — the interval
// setup_s times.
func buildStack(fx *fixture, w workload, g *graph.Graph, first []byte) (*stack, error) {
	st := &stack{client: newClient(w.conns() + 1)}
	var backend serve.Backend
	if w.shards == 0 {
		dep, err := core.NewDeployment(fx.model, g)
		if err != nil {
			return nil, err
		}
		st.dep, backend = dep, dep
	} else {
		cfg := shard.Config{Shards: w.shards, Radius: fx.options(w).TMax}
		addrs := make([]string, w.shards)
		for p := range addrs {
			wk, err := shard.NewWorker(fx.model, g, cfg, p)
			if err != nil {
				st.close()
				return nil, err
			}
			l, err := listen(shard.WorkerHandlerObs(wk, obs.New(obs.Options{})))
			if err != nil {
				st.close()
				return nil, err
			}
			st.workers = append(st.workers, l)
			addrs[p] = l.url
		}
		rt, err := shard.NewRouterTransport(fx.model, g, cfg, shard.NewHTTPTransport(addrs, shard.HTTPTransportConfig{}))
		if err != nil {
			st.close()
			return nil, err
		}
		st.router, backend = rt, rt
	}
	st.srv = serve.NewBackend(backend, serveConfig(fx.options(w), w.cache))
	var err error
	if st.front, err = listen(st.srv.Handler()); err != nil {
		st.close()
		return nil, err
	}
	if _, err := st.infer(first); err != nil {
		st.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return st, nil
}

// close tears the stack down front to back and waits for every goroutine it
// started.
func (st *stack) close() {
	if st.front != nil {
		st.front.close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.router != nil {
		_ = st.router.Close()
	}
	for _, l := range st.workers {
		l.close()
	}
	st.client.CloseIdleConnections()
}

// newClient is a keep-alive HTTP client holding up to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}}
}

// clientDeadlineMs is the X-Deadline-Ms every read carries: the longest the
// server admits (cmd/naiserve's -max-deadline). The default 2 s deadline would
// turn one stall of the box into a failed operation; a stalled request
// should miss the workload's latency limit, not abort the run.
const clientDeadlineMs = "30000"

// post sends one JSON body and decodes the 200 reply into out; any other
// status is an error carrying the server's message.
func post(c *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", clientDeadlineMs)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", url, err)
	}
	// Drain so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// infer posts one pre-encoded /infer body.
func (st *stack) infer(body []byte) (serve.InferResponse, error) {
	var out serve.InferResponse
	err := post(st.client, st.front.url+"/infer", body, &out)
	return out, err
}

// addNodes posts one pre-encoded /nodes body.
func (st *stack) addNodes(body []byte) error {
	var out serve.NodesResponse
	return post(st.client, st.front.url+"/nodes", body, &out)
}

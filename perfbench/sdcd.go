package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/server"
)

// endpoint is an in-process sdcd server behind a loopback HTTP listener.
type endpoint struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// openEndpoint starts server.New on dir and serves it on 127.0.0.1.
func openEndpoint(dir string) (*endpoint, error) {
	srv, err := server.New(server.Options{DataDir: dir, PoolWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ep := &endpoint{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { ep.served <- ep.hs.Serve(ln) }()
	return ep, nil
}

// close stops the listener, waits for the serve loop to return, and shuts
// the server down.
func (ep *endpoint) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ep.hs.Shutdown(ctx)
	if serr := <-ep.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ep.client.CloseIdleConnections()
	ep.srv.Close()
	return err
}

func (ep *endpoint) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, ep.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := ep.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is one request of the closed-loop client.
type outcome struct {
	code     int // status code of the POST
	status   server.Status
	doc      []byte  // the result document
	totalMs  float64 // POST start to the last result byte
	postMs   float64 // the POST alone
	inflight float64 // FinishedAt − SubmittedAt in ms (traced requests only)
}

// request submits spec and fetches its result document, waiting for it.
// A traced request is one op span with a span per HTTP call, and afterwards
// reads the campaign's status for its in-flight time.
func (ep *endpoint) request(spec server.Spec, tr *tracer) (outcome, error) {
	var o outcome
	body, err := json.Marshal(spec)
	if err != nil {
		return o, err
	}
	tr.begin(lOp)
	start := time.Now()
	err = ep.submitAndFetch(body, &o, tr)
	o.totalMs = msSince(start)
	tr.end()
	if err != nil || o.code == http.StatusServiceUnavailable || tr == nil {
		return o, err
	}
	_, resp, err := ep.do(http.MethodGet, "/v1/campaigns/"+o.status.ID, nil)
	if err != nil {
		return o, err
	}
	var st server.Status
	if err := json.Unmarshal(resp, &st); err != nil {
		return o, fmt.Errorf("decoding status: %w", err)
	}
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	fin, err2 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	o.inflight = float64(fin.Sub(sub)) / 1e6
	return o, errors.Join(err1, err2)
}

// submitAndFetch POSTs the spec and, unless the server refused it with 503,
// GETs the result with wait=true.
func (ep *endpoint) submitAndFetch(body []byte, o *outcome, tr *tracer) error {
	start := time.Now()
	tr.begin(lHTTP)
	code, resp, err := ep.do(http.MethodPost, "/v1/campaigns", body)
	tr.end()
	o.postMs = msSince(start)
	o.code = code
	switch {
	case err != nil:
		return err
	case code == http.StatusServiceUnavailable:
		return nil // a refused submission: the caller counts it against the op
	case code != http.StatusOK && code != http.StatusAccepted:
		return fmt.Errorf("POST: status %d: %s", code, resp)
	}
	if err := json.Unmarshal(resp, &o.status); err != nil {
		return fmt.Errorf("decoding status: %w", err)
	}
	tr.begin(lHTTP)
	code, o.doc, err = ep.do(http.MethodGet, "/v1/campaigns/"+o.status.ID+"/result?wait=true", nil)
	tr.end()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: status %d: %s", o.status.ID, code, o.doc)
	}
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// preseed fills dir with the given campaigns through a short-lived server,
// so later servers start by replaying a journal and warming their cache.
// It returns each campaign's result document.
func preseed(dir string, specs []server.Spec) ([][]byte, error) {
	ep, err := openEndpoint(dir)
	if err != nil {
		return nil, err
	}
	docs := make([][]byte, len(specs))
	for i, spec := range specs {
		o, err := ep.request(spec, nil)
		if err == nil && o.code != http.StatusAccepted {
			err = fmt.Errorf("pre-seeding: POST status %d", o.code)
		}
		if err != nil {
			ep.close()
			return nil, err
		}
		docs[i] = o.doc
	}
	return docs, ep.close()
}

// oracleDoc renders spec's result document from the serial harness alone —
// no server, queue or cache — the reference every served byte must match.
func oracleDoc(spec server.Spec) ([]byte, error) {
	spec.Canonicalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reports := make([]*server.ShardReport, 0, len(spec.Seeds))
	for _, seed := range spec.Seeds {
		cfg, err := spec.ShardConfig(seed)
		if err != nil {
			return nil, err
		}
		res, err := harness.RunContext(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		c := res.Canonical()
		reports = append(reports, &server.ShardReport{
			Seed: seed, Rates: c.Rates,
			FPRPct: c.Rates.FPR(), TPRPct: c.Rates.TPR(), SFNRPct: c.Rates.SFNR(),
			MeanOrder: c.MeanOrder, Steps: c.Steps, TrialSteps: c.TrialSteps,
			Evals: c.Evals, MemVectors: c.MemVectors,
		})
	}
	return server.EncodeResult(spec, spec.Hash(), reports)
}

// srvStats accumulates the sdcd blocks.
type srvStats struct {
	blocks                int
	ns                    int64 // wall time of the blocks
	coldMs, hitMs         []float64
	postColdMs, postHitMs []float64
	inflightMs, httpMs    []float64
	rejected              int
	before, after         server.Stats
	bytesWritten          int64
}

// sdcdBlock sends the next block of requests — cold campaigns and exact
// duplicates of pre-seeded ones — through the closed-loop client. docs holds
// the result document of every campaign of the generator's pool served so
// far (the pre-seeded ones from the start); a duplicate must return those
// bytes exactly. Cold campaigns are appended to colds for the oracle.
func sdcdBlock(ep *endpoint, g *gen, docs map[int][]byte, st *srvStats, colds *[]int, chk *checks, trs *tracers) error {
	var tr *tracer
	if trs != nil {
		tr = trs.http
		// Collect the step and campaign ops' garbage first: a server
		// process would not carry it, and its collection would land in the
		// latencies.
		runtime.GC()
	}
	start := time.Now()
	defer func() {
		st.blocks++
		st.ns += int64(time.Since(start))
	}()
	for _, rq := range g.nextBlock() {
		o, err := ep.request(g.pool[rq.idx], tr)
		if err != nil {
			return err
		}
		if o.code == http.StatusServiceUnavailable {
			st.rejected++
			chk.add(1, 1)
			continue
		}
		if rq.cold {
			chk.add(1, boolInt(o.code != http.StatusAccepted))
			docs[rq.idx] = o.doc
			*colds = append(*colds, rq.idx)
			st.coldMs = append(st.coldMs, o.totalMs)
			st.postColdMs = append(st.postColdMs, o.postMs)
			if tr != nil {
				st.inflightMs = append(st.inflightMs, o.inflight)
				st.httpMs = append(st.httpMs, o.totalMs-o.inflight)
			}
			continue
		}
		chk.add(1, boolInt(o.code != http.StatusOK || !o.status.CacheHit || !bytes.Equal(o.doc, docs[rq.idx])))
		st.hitMs = append(st.hitMs, o.totalMs)
		st.postHitMs = append(st.postHitMs, o.postMs)
	}
	return nil
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

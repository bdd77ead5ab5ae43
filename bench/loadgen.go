package main

// The benchmark's own load generator: closed loop, because the callers of
// this tier (the router, batch auditors) wait for their reply before they
// send the next request. A closed loop sends a slow system less load, so
// throughput and latency are two views of one number here. Every response
// is kept and checked against the oracle after the window.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"hydra/internal/serve"
)

type reqKind uint8

const (
	kindTopK reqKind = iota
	kindScore
	kindScoreBatch
)

func (k reqKind) String() string { return [...]string{"topk", "score", "score-batch"}[k] }

// request names one operation: a top-k for A-side account key, or a score
// of the pool pairs starting at index key.
type request struct {
	kind reqKind
	key  int
}

// response is the union of the /topk and /score reply bodies, the
// router's degraded marker included.
type response struct {
	Results    []serve.Scored `json:"results"`
	Scores     []float64      `json:"scores"`
	Generation uint64         `json:"generation"`
	Degraded   bool           `json:"degraded"`
}

// sample is one attempted operation. fault is empty when a 200 with a
// decodable body came back; whether that body is right is the verifier's
// call.
type sample struct {
	req   request
	ns    int64
	bytes int
	fault string
	wrong bool // set by the verifier: a fault, or an answer that is not the oracle's
	resp  response
}

// traffic draws a workload's requests and turns them into HTTP.
type traffic interface {
	pick(rng *rand.Rand) request
	build(base string, r request) (*http.Request, error)
}

// topkTraffic is GET /topk k=5 with A-side ids uniform over na accounts.
type topkTraffic struct{ na int }

func (t topkTraffic) pick(rng *rand.Rand) request { return request{kindTopK, rng.Intn(t.na)} }

func (t topkTraffic) build(base string, r request) (*http.Request, error) {
	q := url.Values{"pa": {string(platA)}, "pb": {string(platB)}, "a": {strconv.Itoa(r.key)}, "k": {strconv.Itoa(topK)}}
	return http.NewRequest(http.MethodGet, base+"/topk?"+q.Encode(), nil)
}

// scoreTraffic is POST /score over a fixed pool: three single pairs to
// one 16-pair batch. A batch is the run of pool pairs that starts at its
// key and wraps around.
type scoreTraffic struct {
	pool   [][2]int
	bodies [2][][]byte // [single|batch][start index]
}

func newScoreTraffic(pool [][2]int) (*scoreTraffic, error) {
	t := &scoreTraffic{pool: pool}
	for form, n := range []int{1, batchSize} {
		t.bodies[form] = make([][]byte, len(pool))
		for i := range pool {
			body, err := json.Marshal(map[string]any{"pa": platA, "pb": platB, "pairs": t.pairs(i, n)})
			if err != nil {
				return nil, err
			}
			t.bodies[form][i] = body
		}
	}
	return t, nil
}

func (t *scoreTraffic) pairs(start, n int) [][2]int {
	out := make([][2]int, n)
	for j := range out {
		out[j] = t.pool[(start+j)%len(t.pool)]
	}
	return out
}

func (t *scoreTraffic) pick(rng *rand.Rand) request {
	kind := kindScore
	if rng.Intn(4) == 0 {
		kind = kindScoreBatch
	}
	return request{kind, rng.Intn(len(t.pool))}
}

func (t *scoreTraffic) build(base string, r request) (*http.Request, error) {
	form := 0
	if r.kind == kindScoreBatch {
		form = 1
	}
	req, err := http.NewRequest(http.MethodPost, base+"/score", bytes.NewReader(t.bodies[form][r.key]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// pairsOf is how many pairs a score request carries.
func pairsOf(k reqKind) int {
	if k == kindScoreBatch {
		return batchSize
	}
	return 1
}

// newClient is one closed-loop client: its own transport, so its own
// single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// do sends one request and times it from send to last body byte.
func do(c *http.Client, tr traffic, base string, r request) sample {
	s := sample{req: r}
	req, err := tr.build(base, r)
	if err != nil {
		s.fault = err.Error()
		return s
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		s.ns = time.Since(start).Nanoseconds()
		s.fault = err.Error()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.ns = time.Since(start).Nanoseconds()
	s.bytes = len(body)
	switch {
	case err != nil:
		s.fault = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.fault = fmt.Sprintf("status %d: %.120s", resp.StatusCode, body)
	default:
		if err := json.Unmarshal(body, &s.resp); err != nil {
			s.fault = "undecodable body: " + err.Error()
		}
	}
	return s
}

// closedLoop drives base with n clients until the window d is over, or,
// when perClient > 0, until each client has sent that many requests.
// Each client draws from its own stream seeded by (seed, client), so the
// same seed replays the same requests. It returns every attempt and the
// wall-clock the clients were busy.
func closedLoop(base string, tr traffic, seed int64, n int, d time.Duration, perClient int) ([]sample, time.Duration) {
	per := make([][]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(ci)))
			c := newClient()
			defer c.CloseIdleConnections()
			for i := 0; perClient <= 0 || i < perClient; i++ {
				if perClient <= 0 && !time.Now().Before(deadline) {
					return
				}
				per[ci] = append(per[ci], do(c, tr, base, tr.pick(rng)))
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// latencies summarises a set of operation times.
type latencies struct {
	sorted []int64 // ns, ascending
}

func newLatencies(ns []int64) latencies {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return latencies{s}
}

// ms returns percentile p (nearest rank) in milliseconds and whether ten
// samples lie beyond it, the support below which a percentile is a draw
// from the tail and not a measurement of it. p = 1 is the maximum.
func (l latencies) ms(p float64) (float64, bool) {
	n := len(l.sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1
	rank = max(0, min(rank, n-1))
	return float64(l.sorted[rank]) / 1e6, n-1-rank >= 10
}

// median is the p50 in milliseconds: the mean of the middle two when the
// count is even, which matters for train-pack's two cycles.
func (l latencies) median() float64 {
	n := len(l.sorted)
	if n == 0 {
		return 0
	}
	return float64(l.sorted[(n-1)/2]+l.sorted[n/2]) / 2e6
}

func (l latencies) String() string {
	out := fmt.Sprintf("n=%d", len(l.sorted))
	for _, p := range []float64{0.5, 0.9, 0.99} {
		if v, ok := l.ms(p); ok || p == 0.5 {
			out += fmt.Sprintf(" p%g=%.3fms", p*100, v)
		} else {
			out += fmt.Sprintf(" p%g=n/a", p*100)
		}
	}
	return out
}

func sampleNs(samples []sample, keep func(sample) bool) []int64 {
	var ns []int64
	for _, s := range samples {
		if keep(s) {
			ns = append(ns, s.ns)
		}
	}
	return ns
}

package main

// The four serving workloads: what each stands up before its window, the
// traffic it is driven with, and how its answers are checked.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"hydra/internal/pipeline"
	"hydra/internal/serve"
	"hydra/internal/serve/router"
)

// listener serves a handler on an ephemeral loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// served is a workload's system under test, stood up and ready for its
// window.
type served struct {
	path    string          // the bundle file it serves
	front   http.Handler    // what the clients' listener serves
	engines []*serve.Engine // every engine behind it
	mapped  *pipeline.MappedBundle
	rt      *router.Router    // topk-router only
	shards  [][]*timedHandler // topk-router: [shard][replica] handler wrappers
	gen     uint64            // generation a correct response carries
	traffic traffic
	pool    [][2]int           // score-pool only
	extra   map[string]float64 // set-up layer times
	closers []func()
}

func (s *served) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// openMapped is the serving start-up path: map the bundle, build the
// engine on it.
func openMapped(path string) (*pipeline.MappedBundle, *serve.Engine, error) {
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		return nil, nil, err
	}
	eng, err := serve.NewEngineFromMapped(mb, 0)
	if err != nil {
		mb.Close()
		return nil, nil, err
	}
	return mb, eng, nil
}

// setUp stands the workload up. Everything it does is the workload's
// set-up time.
func setUp(cfg runCfg, dir, bundlePath string) (*served, error) {
	switch cfg.workload {
	case wlTopKWide, wlScorePool:
		return setUpEngine(cfg, bundlePath)
	case wlTopKRouter:
		return setUpRouter(cfg, bundlePath)
	case wlTopKCold:
		return setUpCold(cfg, dir, bundlePath)
	}
	return nil, fmt.Errorf("no serving workload %q", cfg.workload)
}

// setUpEngine is topk-wide and score-pool: the mapped engine, every cache
// warm.
func setUpEngine(cfg runCfg, path string) (*served, error) {
	s := &served{path: path, extra: map[string]float64{}}
	t := time.Now()
	mb, eng, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	s.extra["pipeline.open_mapped_ms"] = since(t) * 1e3
	s.mapped, s.engines, s.front = mb, []*serve.Engine{eng}, eng.Handler()
	s.closers = append(s.closers, func() { eng.Close() })

	t = time.Now()
	if err := eng.Prewarm(0); err != nil {
		s.close()
		return nil, err
	}
	s.extra["serve.prewarm_s"] = since(t)
	na, nb := eng.NumAccounts(platA), eng.NumAccounts(platB)
	s.traffic = topkTraffic{na}
	if cfg.workload == wlScorePool {
		if s.pool, err = scorePool(eng, cfg.sz.Pool, na, nb, cfg.seed); err != nil {
			s.close()
			return nil, err
		}
		st, err := newScoreTraffic(s.pool)
		if err != nil {
			s.close()
			return nil, err
		}
		s.traffic = st
		// Execute the pool once, so the window times a stationary system
		// and not the pair cache filling up.
		for i := 0; i < len(s.pool); i += batchSize {
			if _, err := eng.ScoreBatch(platA, platB, st.pairs(i, batchSize)); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// scorePool draws the fixed pair pool: half from index rows, which the
// pack-time impute table covers, half uniform over A x B, which mostly
// take the live Eqn-18 walk.
func scorePool(eng *serve.Engine, n, na, nb int, seed int64) ([][2]int, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x9001))
	pool := make([][2]int, 0, n)
	for len(pool) < n/2 {
		a := rng.Intn(na)
		row, err := eng.TopK(platA, a, platB, 0)
		if err != nil {
			return nil, err
		}
		if len(row) > 0 {
			pool = append(pool, [2]int{a, row[rng.Intn(len(row))].B})
		}
	}
	for len(pool) < n {
		pool = append(pool, [2]int{rng.Intn(na), rng.Intn(nb)})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

const (
	routerShards   = 2
	routerReplicas = 2
	routerGen      = 1
)

// setUpRouter is topk-router: the bundle split in two, each shard served
// by two heap engines on their own loopback listeners, fronted by the
// router with default options over HTTP backends.
func setUpRouter(cfg runCfg, path string) (*served, error) {
	s := &served{path: path, extra: map[string]float64{}, gen: routerGen}
	b, err := pipeline.LoadBundle(path)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	subs, err := pipeline.SplitBundle(b, routerShards, worldSeed+6, routerGen)
	if err != nil {
		return nil, err
	}
	s.extra["pipeline.split_s"] = since(t)

	// http.DefaultClient's settings, but a transport of the run's own: its
	// idle connections are closed before the shard listeners shut down,
	// which otherwise wait five seconds for connections a cancelled hedge
	// dialled and never used.
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	backends := make([][]router.Backend, routerShards)
	s.shards = make([][]*timedHandler, routerShards)
	var prewarm float64
	for si, sub := range subs {
		for ri := 0; ri < routerReplicas; ri++ {
			eng, err := serve.NewEngineFromBundle(sub, 0)
			if err != nil {
				s.close()
				return nil, err
			}
			t := time.Now()
			if err := eng.Prewarm(0); err != nil {
				s.close()
				return nil, err
			}
			prewarm += since(t)
			th := &timedHandler{next: eng.Handler(), on: cfg.trace}
			l, err := listen(th.handler())
			if err != nil {
				s.close()
				return nil, err
			}
			s.closers = append(s.closers, l.close)
			s.engines = append(s.engines, eng)
			s.shards[si] = append(s.shards[si], th)
			backends[si] = append(backends[si], &router.HTTP{URL: l.url, Client: hc})
		}
	}
	s.closers = append(s.closers, hc.CloseIdleConnections) // closers run last to first
	s.extra["serve.prewarm_s"] = prewarm
	if s.rt, err = router.New(backends, router.Options{}); err != nil {
		s.close()
		return nil, err
	}
	t = time.Now()
	if err := s.rt.Refresh(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	s.extra["router.refresh_ms"] = since(t) * 1e3
	s.front = s.rt.Handler()
	s.traffic = topkTraffic{s.engines[0].NumAccounts(platA)}
	return s, nil
}

// tileReport is what a tile child prints.
type tileReport struct {
	TileS float64 `json:"tile_s"`
	SaveS float64 `json:"save_s"`
}

// tileBundle is the in-memory 50k-account bundle: the base's numerics
// shared by every tile, so it costs memory of the order of the base.
func tileBundle(basePath string, perPlat, cands int) (*pipeline.Bundle, error) {
	base, err := pipeline.LoadBundle(basePath)
	if err != nil {
		return nil, err
	}
	return pipeline.TiledBundle(base, perPlat, cands, worldSeed)
}

// runTileChild is `-child tile`: tile the base bundle and save it.
// Serialising 315 MB peaks well above a gigabyte of heap, which must not
// count as the serving process's memory, hence the child.
func runTileChild(basePath, out string, perPlat, cands int) (*tileReport, error) {
	t := time.Now()
	tiled, err := tileBundle(basePath, perPlat, cands)
	if err != nil {
		return nil, err
	}
	rep := &tileReport{TileS: since(t)}
	t = time.Now()
	if err := pipeline.SaveBundle(out, tiled); err != nil {
		return nil, err
	}
	rep.SaveS = since(t)
	return rep, nil
}

// setUpCold is topk-cold50k: the base bundle tiled to 50 000 accounts and
// saved, then mapped and served with nothing touched beforehand.
func setUpCold(cfg runCfg, dir, basePath string) (*served, error) {
	path := filepath.Join(dir, "tile.bin")
	s := &served{path: path, extra: map[string]float64{}}
	var rep tileReport
	err := runChild(&rep, "-child", "tile", "-bundle", basePath, "-tile-out", path,
		"-tile-n", strconv.Itoa(cfg.sz.ColdPerPlat), "-tile-cands", strconv.Itoa(cfg.sz.ColdCands))
	if err != nil {
		return nil, err
	}
	s.extra["pipeline.tile_s"], s.extra["pipeline.tile_save_s"] = rep.TileS, rep.SaveS

	t := time.Now()
	mb, eng, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	s.extra["pipeline.open_mapped_ms"] = since(t) * 1e3
	s.mapped, s.engines, s.front = mb, []*serve.Engine{eng}, eng.Handler()
	s.closers = append(s.closers, func() { eng.Close() })
	s.traffic = topkTraffic{cfg.sz.ColdPerPlat}
	return s, nil
}

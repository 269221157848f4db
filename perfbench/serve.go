package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vc2m/client"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
)

// clients is the closed loop's client count. Each keeps one request in
// flight, like client.Wait, vc2m-sim -server and vc2m-paper -server, and
// the count matches the server's default two workers.
const clients = 2

// served is one measured request: submit, wait for the terminal state,
// fetch the report bytes.
type served struct {
	idx     int
	id      string
	latency time.Duration
	crc     uint32 // checksum of the report bytes as first served
	bytes   int
	err     error // transport error, non-done state or failed output check
}

// serveRound is one round of a serving workload: a fresh server, set up,
// warmed up, then measured under the closed loop.
type serveRound struct {
	traced   bool
	setup    time.Duration
	wall     time.Duration
	runs     []served
	retained int64   // live-heap growth over the measured phase
	alloc    uint64  // bytes allocated over the measured phase
	gc       uint32  // GC cycles over the measured phase
	speed    float64 // machine speed around the round, see calibrate.go
}

// serveRound runs round n of workload w for dur. Rounds share the request
// index counter, so every request of a run is distinct. Client calls are
// recorded as spans when tr is non-nil.
func (b *bench) serveRound(ctx context.Context, w serveWorkload, n int, dur time.Duration, tr *tracer) (r *serveRound, err error) {
	r = &serveRound{traced: tr != nil}
	runtime.GC()
	start := time.Now()

	srv := server.New(server.Config{})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx) // nothing was submitted; the listen error is the one to report
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	tp := &http.Transport{MaxIdleConnsPerHost: 4 * clients}
	cl := client.New("http://"+ln.Addr().String(), &http.Client{Transport: tp, Timeout: 2 * time.Minute})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		serr := srv.Shutdown(sctx)
		if herr := hs.Shutdown(sctx); serr == nil {
			serr = herr
		}
		if verr := <-serveDone; serr == nil && !errors.Is(verr, http.ErrServerClosed) {
			serr = verr
		}
		tp.CloseIdleConnections()
		if err == nil && serr != nil {
			err = fmt.Errorf("server shutdown: %w", serr)
		}
	}()

	var bases []*churnBase
	if w.churn {
		if bases, err = b.submitBases(ctx, cl); err != nil {
			return nil, err
		}
		b.bases = bases
	}
	send := func(t *tracer) func(int) served {
		return func(i int) served { return b.send(ctx, cl, w, bases, i, t) }
	}

	var warm atomic.Int64
	for _, s := range drive(func() (int, bool) {
		k := int(warm.Add(1) - 1)
		return warmupIndex + n*b.size.warmup + k, k < b.size.warmup
	}, send(nil)) {
		if s.err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", s.idx, s.err)
		}
	}
	r.setup = time.Since(start)

	calBefore := calibrate()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	deadline := t0.Add(dur)
	r.runs = drive(func() (int, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return int(b.next.Add(1) - 1), true
	}, send(tr))
	r.wall = time.Since(t0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.retained = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.gc = m1.NumGC - m0.NumGC - 1 // the forced collection above is not the workload's
	r.speed = speed(calBefore, calibrate())

	b.verifyRound(ctx, cl, w, bases, r, n)
	return r, nil
}

// submitBases creates the churn base runs on a fresh server: every base
// fleet's first attempt is submitted, then each is waited for, and a
// fleet the server rejects is replaced by its next attempt.
func (b *bench) submitBases(ctx context.Context, cl *client.Client) ([]*churnBase, error) {
	bases := make([]*churnBase, churnBases)
	attempt := make([]int, churnBases)
	pending := make([]int, churnBases)
	for k := range pending {
		pending[k] = k
	}
	for len(pending) > 0 {
		for _, k := range pending {
			cb, a, err := churnFleet(b.seed, k, attempt[k])
			if err != nil {
				return nil, err
			}
			attempt[k] = a
			resp, err := cl.Submit(ctx, cb.req)
			if err != nil {
				return nil, fmt.Errorf("churn base %d: %w", k, err)
			}
			cb.id = resp.ID
			bases[k] = cb
		}
		var retry []int
		for _, k := range pending {
			st, err := cl.Wait(ctx, bases[k].id)
			if err != nil {
				return nil, fmt.Errorf("churn base %d: %w", k, err)
			}
			if st.State != server.StateDone {
				return nil, fmt.Errorf("churn base %s ended %s: %s", bases[k].id, st.State, st.Error)
			}
			if st.Schedulable == nil || !*st.Schedulable {
				attempt[k]++
				retry = append(retry, k)
			}
		}
		pending = retry
	}
	return bases, nil
}

// baseAlloc returns a churn base's in-process allocation, computed once
// per run for the output checks and the replay.
func (b *bench) baseAlloc(cb *churnBase) (*model.Allocation, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if a, ok := b.allocs[cb.req.GenSeed]; ok {
		return a, nil
	}
	a, err := baseAllocation(cb)
	if err != nil {
		return nil, fmt.Errorf("churn base %s in-process: %w", cb.id, err)
	}
	if b.allocs == nil {
		b.allocs = map[int64]*model.Allocation{}
	}
	b.allocs[cb.req.GenSeed] = a
	return a, nil
}

// drive runs the closed loop: each client takes the next request index,
// sends that request, and takes another only once its report arrived.
func drive(next func() (int, bool), send func(int) served) []served {
	var (
		mu  sync.Mutex
		out []served
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				s := send(i)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// send sends request i and waits for its report, as the repo's own
// callers do: submit, wait for the terminal state, fetch the report.
func (b *bench) send(ctx context.Context, cl *client.Client, w serveWorkload, bases []*churnBase, i int, tr *tracer) served {
	var req server.SubmitRequest
	if w.churn {
		req = churnRequest(w, bases, b.seed, i)
	} else {
		req = runRequest(w, b.seed, i)
	}
	s := served{idx: i}
	rt := tr.request(fmt.Sprintf("q%d", i))
	start := time.Now()
	root := rt.begin("client.request", -1)
	sp := rt.begin("client.submit", root)
	var resp server.SubmitResponse
	var err error
	if w.churn {
		resp, err = cl.Churn(ctx, bases[i%len(bases)].id, req)
	} else {
		resp, err = cl.Submit(ctx, req)
	}
	rt.end(sp)
	var data []byte
	if err == nil {
		s.id = resp.ID
		sp = rt.begin("client.wait", root)
		st, werr := cl.Wait(ctx, resp.ID)
		rt.end(sp)
		switch {
		case werr != nil:
			err = werr
		case st.State != server.StateDone:
			err = fmt.Errorf("run %s ended %s: %s", resp.ID, st.State, st.Error)
		default:
			sp = rt.begin("client.fetch", root)
			data, err = cl.ReportBytes(ctx, resp.ID)
			rt.end(sp)
		}
	}
	s.latency = time.Since(start)
	rt.end(root)
	rt.commit()
	s.err = err
	s.crc = crc32.ChecksumIEEE(data)
	s.bytes = len(data)
	return s
}

// verifyRound checks the round's output once its measured phase is over:
// every served report is fetched again, must match the bytes first
// served, and must pass checkReport; a seeded sample must also be
// byte-identical to the in-process facade. A failed check fails its
// request.
func (b *bench) verifyRound(ctx context.Context, cl *client.Client, w serveWorkload, bases []*churnBase, r *serveRound, n int) {
	var ok []int
	for k := range r.runs {
		if r.runs[k].err == nil {
			ok = append(ok, k)
		}
	}
	sampled := map[int]bool{}
	rng := rngutil.New(requestSeed(b.seed, warmupIndex-1-n))
	for _, p := range rng.Perm(len(ok)) {
		if len(sampled) == b.size.sample {
			break
		}
		sampled[ok[p]] = true
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(ok) {
					return
				}
				k := ok[j]
				r.runs[k].err = b.verifyRun(ctx, cl, w, bases, r.runs[k], sampled[k])
			}
		}()
	}
	wg.Wait()
}

func (b *bench) verifyRun(ctx context.Context, cl *client.Client, w serveWorkload, bases []*churnBase, s served, sampled bool) error {
	data, err := cl.ReportBytes(ctx, s.id)
	if err != nil {
		return fmt.Errorf("refetch report: %w", err)
	}
	if crc32.ChecksumIEEE(data) != s.crc {
		return fmt.Errorf("report %s changed between fetches", s.id)
	}
	if err := checkReport(w, data); err != nil {
		return fmt.Errorf("request %d (%s): %w", s.idx, s.id, err)
	}
	if !sampled {
		return nil
	}
	var want []byte
	if w.churn {
		base := bases[s.idx%len(bases)]
		prev, err := b.baseAlloc(base)
		if err != nil {
			return err
		}
		want, err = facadeChurnReport(prev, base.id, churnRequest(w, bases, b.seed, s.idx))
	} else {
		want, err = facadeRunReport(runRequest(w, b.seed, s.idx))
	}
	if err != nil {
		return fmt.Errorf("request %d in-process: %w", s.idx, err)
	}
	if string(want) != string(data) {
		return fmt.Errorf("request %d (%s): served report differs from the in-process facade (%d vs %d bytes)",
			s.idx, s.id, len(data), len(want))
	}
	return nil
}

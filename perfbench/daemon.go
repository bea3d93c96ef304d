package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/libcorpus"
	"repro/internal/service"
)

const (
	batchSize = 25
	sources   = 4
	// poolScale sizes every daemon half's record pool. At scale 1 the
	// daemon's latencies were a few milliseconds of scheduling wait, and
	// their tails spread 0.3-0.5 between runs on a 2-vCPU VM; scale-10
	// state makes the per-batch work, not the scheduler, set them.
	poolScale = 10
	// backlogBatches is the replayed backlog, posted back to back.
	backlogBatches = 400
	// openRate is the open loop's fixed offered rate in batches per
	// second; the daemon sustains it without shedding.
	openRate = 25
	// pollEvery is how often the visibility poller reads the snapshot.
	pollEvery = 200 * time.Microsecond
	// lateBound is the generator's own validity bound: when its tail
	// lateness exceeds this, the offered rate was not the stated one and
	// the run is invalid.
	lateBound = 50 * time.Millisecond
	// setupReps is how many cold set-ups (fresh processes) setup_s is the
	// median of.
	setupReps = 9
	// handlerBatches is how many batches the traced run pushes through
	// the paused handler; decode and admission cost does not depend on
	// state, so a prefix suffices.
	handlerBatches = 200
	// tickRoom is the idle time a calibration tick needs before the next
	// batch is due.
	tickRoom = 20 * time.Millisecond
	// drainLimit bounds a drain or a wait for visibility.
	drainLimit = 60 * time.Second
)

// openBatches is the open loop's batch count for a half of length d.
func openBatches(d time.Duration) int { return int(d.Seconds() * openRate) }

// sequence is a pre-encoded batch stream drawn from a seeded pool.
type sequence struct {
	batches [][]dataset.Record
	bodies  [][]byte
}

// makeSequences draws k streams of n batches each from one seeded pool.
// Each batch holds batchSize consecutive pool records at a seeded offset,
// and the batches go round-robin over the sources. Stream i's offsets come
// from studySeed(seed, i), so the first stream is the same whatever k is.
// Every body is encoded up front, so the generator does no work while it
// is timed.
func makeSequences(w workload, seed int64, k, n int) ([]*sequence, error) {
	pool := dataset.Generate(dataset.Config{Seed: seed, Scale: poolScale, AsOf: w.asof})
	size := pool.Records.Len()
	var seqs []*sequence
	for s := 0; s < k; s++ {
		rng := rand.New(rand.NewSource(studySeed(seed, s)))
		seq := &sequence{}
		for i := 0; i < n; i++ {
			lo := rng.Intn(size)
			recs := make([]dataset.Record, batchSize)
			for j := range recs {
				recs[j] = pool.Records.At((lo + j) % size)
			}
			body, err := service.EncodeBatch(fmt.Sprintf("source-%d", i%sources), recs)
			if err != nil {
				return nil, fmt.Errorf("encode stream %d batch %d: %w", s, i, err)
			}
			seq.batches = append(seq.batches, recs)
			seq.bodies = append(seq.bodies, body)
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}

func (s *sequence) records() int { return len(s.batches) * batchSize }

// serviceOptions sizes the queue and every source budget to hold the
// whole stream, so nothing is shed, with one ingest worker so merge order
// equals admission order.
func serviceOptions(seed int64, batches int) service.Options {
	return service.Options{
		Seed:          seed,
		Workers:       1,
		QueueDepth:    batches + 1,
		SourceBudget:  batches + 1,
		ShedWatermark: 1,
		StallTimeout:  time.Hour,
	}
}

// daemon is a service behind its HTTP handler on a loopback listener.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	served chan error
}

func startDaemon(opts service.Options) (*daemon, error) {
	svc := service.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Drain(context.Background()))
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: service.Handler(svc, service.HTTPOptions{})},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, drainLimit)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("readyz: %w (last attempt: %w)", ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the listener down, waits for Serve to return, and drains the
// service.
func (d *daemon) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, drainLimit)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.svc.Drain(ctx))
}

// newClient is one keep-alive connection's worth of HTTP client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// setupOnce brings the system to ready in this process: the study side's
// library corpus for the workload date, then a daemon answering /readyz.
func setupOnce(ctx context.Context, w workload) (time.Duration, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	t0 := clock.Now()
	libcorpus.NewMatcherAsOf(w.asof)
	d, err := startDaemon(serviceOptions(1, 1))
	if err != nil {
		return 0, err
	}
	err = d.waitReady(ctx, c)
	took := since(t0)
	return took, errors.Join(err, d.stop(ctx))
}

// medianSetup is the median cold set-up over setupReps fresh processes:
// the corpus is memoized process-wide, so only a new process pays for it.
// Each probe's time is divided by the speed factor of the calibration
// ticks around it.
func medianSetup(ctx context.Context, w workload, cal *calibration) (float64, int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var secs []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.CommandContext(ctx, self, "-setup-probe", "-workload", w.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, 0, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("setup probe output %q: %w", out, err)
		}
		secs = append(secs, v/cal.between())
	}
	return median(secs), len(secs), nil
}

// post submits one pre-encoded body and requires 202.
func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/batch: status %d", resp.StatusCode)
	}
	return nil
}

// poller watches the published snapshot from outside the service. With
// one ingest worker, batches merge in admission order, so batch i is
// visible once the snapshot holds (i+1)*batchSize records.
type poller struct {
	seen    []time.Time
	seenCPU []time.Duration // cpuNow when each batch was seen
	backlog chan struct{}   // closed when the backlog's last batch is seen
	all     chan struct{}   // closed when every batch is seen
	stop    chan struct{}
}

func startPoller(svc *service.Service, batches, backlog int) *poller {
	p := &poller{
		seen:    make([]time.Time, batches),
		seenCPU: make([]time.Duration, batches),
		backlog: make(chan struct{}),
		all:     make(chan struct{}),
		stop:    make(chan struct{}),
	}
	go func() {
		defer close(p.all)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		next := 0
		for next < batches {
			recs := svc.Snapshot().Records
			now, cpu := clock.Now(), cpuNow()
			for next < batches && int64(next+1)*batchSize <= recs {
				p.seen[next] = now
				p.seenCPU[next] = cpu
				if next == backlog-1 {
					close(p.backlog)
				}
				next++
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func sleepUntil(t time.Time) {
	if d := t.Sub(clock.Now()); d > 0 {
		time.Sleep(d)
	}
}

var snapshotHeader = regexp.MustCompile(`^IoT TLS Service Snapshot — epoch (\d+), (\d+) batches, (\d+) records, \d+ fingerprints`)

// daemonSamples gathers the daemon figures of a run's rounds.
type daemonSamples struct {
	rates        []float64 // backlog replay, records per CPU second
	ratesWall    []float64 // backlog replay, records per second
	visible      []float64 // open loop, due time to visible
	visibleTails []float64 // one CPU-time tail per round
	submitTails  []float64 // one CPU-time tail per round
	reads        []float64 // GET /report round trips, CPU time
	readsWall    []float64 // GET /report round trips
	lateTails    []float64 // generator lateness, one tail per round
	tailPct      float64   // the percentile each round's tail sits at
}

// daemonRound runs one fresh daemon over seq: the backlog back to back,
// then the rest as the open loop, then report reads over the final state.
// It adds the round's figures to s and reports false when the daemon
// could not finish.
func (b *bench) daemonRound(ctx context.Context, seq *sequence, ph phases, s *daemonSamples) bool {
	n := len(seq.bodies)
	backlog := n - openBatches(ph.open)
	d, err := startDaemon(serviceOptions(b.seed, n))
	b.res.op(err)
	if err != nil {
		return false
	}
	poster, reader := newClient(), newClient()
	defer poster.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	if err := d.waitReady(ctx, poster); err != nil {
		b.res.op(err)
		b.res.op(d.stop(ctx))
		return false
	}
	p := startPoller(d.svc, n, backlog)
	defer func() {
		close(p.stop)
		<-p.all
	}()

	var t0 time.Time
	var c0 time.Duration
	visible := false
	sp := b.cal.during(func() {
		t0, c0 = clock.Now(), cpuNow()
		for i := 0; i < backlog; i++ {
			b.res.op(post(poster, d.url, seq.bodies[i]))
		}
		select {
		case <-p.backlog:
			visible = true
		case <-time.After(drainLimit):
		}
	})
	if !visible {
		b.res.op(fmt.Errorf("backlog not visible after %s", drainLimit))
		b.res.op(d.stop(ctx))
		return false
	}
	// A rate is work over time: a slow host lowers it.
	records := float64(backlog * batchSize)
	cpu := p.seenCPU[backlog-1] - c0 - sp.cpu
	wall := p.seen[backlog-1].Sub(t0) - sp.wall
	s.rates = append(s.rates, sp.speed*records/cpu.Seconds())
	s.ratesWall = append(s.ratesWall, sp.speed*records/wall.Seconds())
	b.cal.point()
	if !b.openLoop(d.svc, p, poster, d.url, seq, backlog, ph.open, s) {
		b.res.op(d.stop(ctx))
		return false
	}
	b.reads(reader, d.url, int64(n), ph.read, s)
	b.res.op(d.stop(ctx))
	b.checkDrained(d.svc, seq)
	return true
}

// openLoop offers stream's batches after backlog at openRate for openFor.
// Batch i is due at start+i/openRate whatever happened to batch i-1, and
// every latency counts from the due time. Nothing else runs meanwhile: on
// the run's one P, report renders beside the open loop made its latencies
// a measure of the Go scheduler's time slices. Once a batch is visible,
// a calibration tick fills part of the idle time before the next one is
// due, and the batch's latencies are divided by that speed. It reports
// false when the batches never became visible.
//
// The p50 is taken in wall time. The tails are taken in the process's CPU
// time over the same span: on one P, with one batch in flight, that is
// the wall time less the idle waits and less the stretches in which the
// hypervisor held the vCPU. Those stalls, of 5 to 40 ms, hit a few
// batches in a round at random and decided the wall-time tails.
func (b *bench) openLoop(svc *service.Service, p *poller, poster *http.Client, url string, stream *sequence, backlog int, openFor time.Duration, s *daemonSamples) bool {
	open := len(stream.bodies) - backlog
	start := clock.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * time.Second / openRate) }
	late := make([]float64, open)
	cpuAt := make([]time.Duration, open)
	submitCPU := make([]float64, open)
	speed := make([]float64, open)
	for i := 0; i < open; i++ {
		at := due(i)
		sleepUntil(at)
		late[i] = ms(since(at))
		cpuAt[i] = cpuNow()
		b.res.op(post(poster, url, stream.bodies[backlog+i]))
		submitCPU[i] = ms(cpuNow() - cpuAt[i])
		// A tick while the batch still merges would slow the merge, and
		// one running into the next due time would delay the next POST.
		speed[i] = b.cal.last
		if svc.Snapshot().Records >= int64(backlog+i+1)*batchSize && due(i+1).Sub(clock.Now()) > tickRoom {
			speed[i] = b.cal.tick()
		}
	}
	select {
	case <-p.all:
	case <-time.After(drainLimit):
		b.res.op(fmt.Errorf("open loop not visible after %s", drainLimit))
		return false
	}
	b.cal.point()
	// The generator's lateness judges the run's validity in wall time;
	// every other figure is in reference units.
	visible := make([]float64, open)
	visibleCPU := make([]float64, open)
	for i := range visible {
		visible[i] = ms(p.seen[backlog+i].Sub(due(i))) / speed[i]
		visibleCPU[i] = ms(p.seenCPU[backlog+i]-cpuAt[i]) / speed[i]
		submitCPU[i] /= speed[i]
	}
	s.visible = append(s.visible, visible...)
	vt, pct, err := tail(visibleCPU)
	b.res.op(err)
	st, _, serr := tail(submitCPU)
	b.res.op(serr)
	lt, _, lerr := tail(late)
	b.res.op(lerr)
	if err == nil && serr == nil && lerr == nil {
		s.visibleTails = append(s.visibleTails, vt)
		s.submitTails = append(s.submitTails, st)
		s.lateTails = append(s.lateTails, lt)
		s.tailPct = pct
	}
	return true
}

// reads GETs /report back to back for readFor over a second connection,
// on the state the round ingested, and at least once, each with the
// calibration sampler beside it.
func (b *bench) reads(reader *http.Client, url string, epoch int64, readFor time.Duration, s *daemonSamples) {
	start := clock.Now()
	for first := true; first || since(start) < readFor; first = false {
		var (
			got       int64
			err       error
			wall, cpu time.Duration
		)
		sp := b.cal.during(func() {
			at, c0 := clock.Now(), cpuNow()
			got, err = readReport(reader, url, epoch)
			wall, cpu = since(at), cpuNow()-c0
		})
		s.reads = append(s.reads, ms(cpu-sp.cpu)/sp.speed)
		s.readsWall = append(s.readsWall, ms(wall-sp.wall)/sp.speed)
		if err == nil && got != epoch {
			err = fmt.Errorf("GET /report: epoch %d after the last of %d batches merged", got, epoch)
		}
		b.res.op(err)
	}
	b.cal.point()
}

// setDaemonMetrics records the daemon figures over every round: medians
// of the pooled samples, and of the rounds' tails. A tail taken over the
// whole run at once let one host stall of a second or more decide it.
func (b *bench) setDaemonMetrics(s *daemonSamples) {
	if len(s.rates) > 0 {
		b.res.set("replay_rec_per_cpu_s", median(s.rates), len(s.rates))
		b.res.note("replay wall rec/s", median(s.ratesWall), "1/s", len(s.ratesWall))
	}
	if len(s.visible) > 0 {
		b.res.set("visible_p50_ms", median(s.visible), len(s.visible))
	}
	if len(s.visibleTails) > 0 {
		n := len(s.visible)
		b.res.set("visible_tail_cpu_ms", median(s.visibleTails), n)
		b.res.set("submit_tail_cpu_ms", median(s.submitTails), n)
		b.res.note("round tail percentile", s.tailPct, "%", n/len(s.visibleTails))
		// The generator's lateness is judged like the other tails: a
		// stall that spoils one round does not make the run invalid, a
		// generator that falls behind in most rounds does.
		late := median(s.lateTails)
		b.res.note("gen_late_tail_ms", late, "ms", n)
		b.res.gate(ms(lateBound) >= late, "generator fell behind: tail lateness %.2f ms > %s", late, lateBound)
	}
	if len(s.reads) > 0 {
		b.res.set("report_read_cpu_p50_ms", median(s.reads), len(s.reads))
		b.res.note("report read wall p50 ms", median(s.readsWall), "ms", len(s.readsWall))
	}
}

// readReport GETs /report and checks its epoch header: one published
// epoch per merged batch, batchSize records per batch, and never older
// than the previous read.
func readReport(c *http.Client, url string, lastEpoch int64) (int64, error) {
	resp, err := c.Get(url + "/report")
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /report: status %d", resp.StatusCode)
	}
	m := snapshotHeader.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("GET /report: header %q", firstLine(body))
	}
	epoch, batches, records := int64(atoi(m[1])), int64(atoi(m[2])), int64(atoi(m[3]))
	if epoch != batches || records != batches*batchSize || epoch < lastEpoch {
		return 0, fmt.Errorf("GET /report: inconsistent header %q after epoch %d", firstLine(body), lastEpoch)
	}
	return epoch, nil
}

// checkDrained gates the drained daemon: conservation, nothing shed or
// quarantined, and the final snapshot holding every accepted record.
func (b *bench) checkDrained(svc *service.Service, seq *sequence) {
	st := svc.Stats()
	b.res.gate(st.Conserved(), "daemon not conserved: %+v", st)
	b.res.gate(st.ShedBatches == 0 && st.QuarantinedBatches == 0,
		"daemon shed %d and quarantined %d batches", st.ShedBatches, st.QuarantinedBatches)
	b.res.gate(st.AcceptedRecords == int64(seq.records()),
		"daemon accepted %d records, posted %d", st.AcceptedRecords, seq.records())
	b.res.gate(svc.Snapshot().Records == st.AcceptedRecords,
		"final snapshot holds %d records, accepted %d", svc.Snapshot().Records, st.AcceptedRecords)
}

// peakRSSMB is this process's maximum resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// tracedDaemon times the daemon's layers on the workload's batch stream
// through their public calls, serially at one worker.
func (b *bench) tracedDaemon(ctx context.Context, seq *sequence) {
	// Decode and admission: the handler with workers paused, so no merge
	// competes with it.
	k := handlerBatches
	if k > len(seq.bodies) {
		k = len(seq.bodies)
	}
	svc := service.New(serviceOptions(b.seed, k))
	svc.PauseWorkers()
	h := service.Handler(svc, service.HTTPOptions{})
	var handler []float64
	for i := 0; i < k; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(seq.bodies[i]))
		rec := httptest.NewRecorder()
		t0 := clock.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, ms(since(t0)))
		b.res.gate(rec.Code == http.StatusAccepted, "handler: batch %d status %d", i, rec.Code)
	}
	svc.ResumeWorkers()
	dctx, cancel := context.WithTimeout(ctx, drainLimit)
	b.res.op(svc.Drain(dctx))
	cancel()
	st := svc.Stats()
	b.res.gate(st.Conserved() && st.AcceptedBatches == int64(k), "handler replay: %+v", st)
	b.res.set("service.post_handler.p50_ms", median(handler), len(handler))

	// Per-batch delta, merge and publish clone, as the ingest worker runs
	// them, over the whole stream.
	n := len(seq.batches)
	tenth := n / 10
	live := analysis.NewClientEmpty()
	var snap *analysis.Client
	var delta, mergeFirst, mergeLast, cloneFirst, cloneLast, cloneKB []float64
	for i, recs := range seq.batches {
		t0 := clock.Now()
		dl, err := analysis.NewDelta(recs)
		t1 := clock.Now()
		if err != nil {
			b.res.op(fmt.Errorf("delta %d: %w", i, err))
			return
		}
		live.MergeDelta(dl)
		t2 := clock.Now()
		last := i >= n-tenth
		var m0, m1 runtime.MemStats
		if last {
			runtime.ReadMemStats(&m0)
		}
		t3 := clock.Now()
		snap = live.Clone()
		t4 := clock.Now()
		if last {
			runtime.ReadMemStats(&m1)
			cloneKB = append(cloneKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		}
		delta = append(delta, ms(t1.Sub(t0)))
		switch {
		case i < tenth:
			mergeFirst = append(mergeFirst, ms(t2.Sub(t1)))
			cloneFirst = append(cloneFirst, ms(t4.Sub(t3)))
		case last:
			mergeLast = append(mergeLast, ms(t2.Sub(t1)))
			cloneLast = append(cloneLast, ms(t4.Sub(t3)))
		}
	}
	b.res.op(nil)
	b.res.set("analysis.delta.p50_ms", median(delta), len(delta))
	b.res.set("analysis.merge.first_ms", median(mergeFirst), len(mergeFirst))
	b.res.set("analysis.merge.last_ms", median(mergeLast), len(mergeLast))
	b.res.set("analysis.clone.first_ms", median(cloneFirst), len(cloneFirst))
	b.res.set("analysis.clone.last_ms", median(cloneLast), len(cloneLast))
	b.res.set("analysis.clone.alloc_kb", median(cloneKB), len(cloneKB))
	b.res.set("analysis.fingerprints", float64(snap.NumFingerprints()), 1)

	// The snapshot report a GET /report renders, over the final state.
	sn := &service.Snapshot{Epoch: int64(n), Batches: int64(n), Records: int64(seq.records()), Client: snap}
	matcher := libcorpus.NewMatcher()
	var render []float64
	for rep := 0; rep < 3; rep++ {
		var buf bytes.Buffer
		t0 := clock.Now()
		sn.WriteReport(&buf, matcher, 1)
		render = append(render, ms(since(t0)))
		b.res.gate(snapshotHeader.Match(buf.Bytes()), "snapshot report header %q", firstLine(buf.Bytes()))
	}
	b.res.set("service.snapshot_report.busy_ms", median(render), len(render))
}

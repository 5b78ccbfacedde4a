package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/fgservice"
	"freerideg/internal/units"
)

// fgservedOptions are cmd/fgserved's default flags: global variant,
// 1-1 / 100MB/s / 256MB self-profiling base, 30 s request timeout,
// default MaxInFlight, and default trace sampling (every request).
func fgservedOptions() fgservice.Options {
	return fgservice.Options{
		Variant:          "global",
		BaseDataNodes:    1,
		BaseComputeNodes: 1,
		BaseBandwidth:    100 * units.MBPerSec,
		BaseBytes:        256 * units.MB,
		RequestTimeout:   30 * time.Second,
	}
}

// server is one service instance under load, reachable in-process and,
// when listening, over loopback.
type server struct {
	srv     *fgservice.Server
	handler http.Handler
	ln      *listener // nil for in-process workloads
}

// newTarget connects one client to the server the way the workload
// reaches it: over loopback when it listens, in-process otherwise.
func (s *server) newTarget(conns *connStats) target {
	if s.ln != nil {
		return newTCPTarget(s.ln.addr, conns)
	}
	return newInprocTarget(s.handler)
}

func (s *server) close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.shutdown()
}

// warmOp is the first /predict a server answers for an app; it triggers
// the app's self-profiling simulation.
func warmOp(app string) op {
	return op{url: urlPredict, kind: kindPredict, ref: -1, body: mustJSON(fgservice.PredictRequest{
		App: app,
		Config: fgservice.ConfigRequest{
			Cluster: bench.PentiumCluster, DataNodes: 1, ComputeNodes: 1,
			Bandwidth: "100MB", DatasetBytes: "64MB",
		},
	})}
}

// startServer does what setup_s times: build the service, bring its
// listener up (TCP workloads), and get a 200 from the first /predict of
// every app in the vocabulary — which includes each app's
// self-profiling simulation. Apps are warmed serially in paperApps
// order, so every server of a run reaches the same store version.
func startServer(opts fgservice.Options, tcp bool, conns *connStats) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := fgservice.New(opts)
	if err != nil {
		return nil, 0, err
	}
	s := &server{srv: srv, handler: srv.Handler()}
	if tcp {
		if s.ln, err = listen(s.handler, opts.RequestTimeout); err != nil {
			return nil, 0, err
		}
	}
	tgt := s.newTarget(conns)
	defer tgt.close()
	for _, app := range paperApps {
		o := warmOp(app)
		status, body, err := tgt.do(&o)
		if err != nil || status != http.StatusOK {
			_ = s.close()
			return nil, 0, fmt.Errorf("warming %s: status %d, err %v: %s", app, status, err, body)
		}
	}
	return s, time.Since(t0), nil
}

// setupRepeats is how many times a run performs the whole set-up; the
// reported setup_s is their median, and the last server built is the
// one measured.
const setupRepeats = 21

func setupServers(tcp bool, conns *connStats) (*server, float64, error) {
	var times []float64
	var last *server
	for i := 0; i < setupRepeats; i++ {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, 0, err
			}
		}
		s, d, err := startServer(fgservedOptions(), tcp, conns)
		if err != nil {
			return nil, 0, err
		}
		last = s
		times = append(times, d.Seconds())
	}
	return last, median(times), nil
}

// buildReference answers every op serially on a second server with the
// response cache and tracing off and the same warm-up order: the
// differential oracle read-only workloads compare each response against,
// byte for byte. It is not part of setup_s.
func buildReference(ops []op) ([][]byte, error) {
	opts := fgservedOptions()
	opts.DisableCache = true
	opts.TraceSample = -1
	s, _, err := startServer(opts, false, nil)
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	tgt := newInprocTarget(s.handler)
	ref := make([][]byte, len(ops))
	for i := range ops {
		status, body, _ := tgt.do(&ops[i])
		if status != http.StatusOK {
			return nil, fmt.Errorf("reference server: %s answered %d: %s", ops[i].url.Path, status, body)
		}
		ref[i] = bytes.Clone(body)
	}
	return ref, nil
}

// client is one load-generating goroutine's state. Latency samples go
// into a preallocated slice — no locks, no allocation in the timed loop.
type client struct {
	id  int
	tgt target
	pos int // next schedule position

	// samples holds one entry per successful op: latency in 4 ns units
	// in the high 30 bits, opKind in the low 2.
	samples []uint32
	// late holds each open-loop op's send lateness in nanoseconds.
	late []uint32

	attempted, failed int64
	firstFailure      string
	full              bool // sample buffer filled before the window ended

	// churn checker state
	lastVersion uint64
	selects     int
	// backlogMax is the most due-but-unsent ops this client's
	// connection has had waiting in the open loop.
	backlogMax int
}

const (
	sampleShift  = 2
	sampleMaxLat = 1<<30 - 1
)

func packSample(lat time.Duration, k opKind) uint32 {
	units := min(max(int64(lat)>>sampleShift, 0), sampleMaxLat)
	return uint32(units)<<sampleShift | uint32(k)
}

func sampleNanos(s uint32) int64 { return int64(s>>sampleShift) << sampleShift }
func sampleKind(s uint32) opKind { return opKind(s & (1<<sampleShift - 1)) }

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

// A checker decides whether one response is correct. It runs on the
// client's goroutine after the op's latency has been taken.
type checker func(c *client, o *op, status int, body []byte) bool

// referenceChecker compares each response byte for byte with the
// reference server's answer to the same request.
func referenceChecker(ref [][]byte) checker {
	return func(c *client, o *op, status int, body []byte) bool {
		if status != http.StatusOK {
			c.fail("%s answered %d: %.200s", o.url.Path, status, body)
			return false
		}
		if !bytes.Equal(body, ref[o.ref]) {
			c.fail("%s response differs from the cache-off reference:\n got %.300s\nwant %.300s", o.url.Path, body, ref[o.ref])
			return false
		}
		return true
	}
}

// jsonInt extracts the first integer value of key from an indented JSON
// body as the service renders it (`"key": 123`).
func jsonInt(body []byte, needle []byte) (int64, bool) {
	i := bytes.Index(body, needle)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(needle):]
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return v, err == nil
}

var (
	needleVersion  = []byte(`"storeVersion": `)
	needleTdisk    = []byte(`"tdiskNs": `)
	needleTnetwork = []byte(`"tnetworkNs": `)
	needleTcompute = []byte(`"tcomputeNs": `)
	needleTexec    = []byte(`"texecNs": `)
)

// selectDecodeEvery is how often a churn client fully decodes a /select
// response to check selected == candidates[0]; the cheaper checks run on
// every response.
const selectDecodeEvery = 8

// churnChecker holds the invariants a read must keep while writes land
// beside it: status 200, the paper's additivity t_d + t_n + t_c ==
// T_exec on every /predict, a storeVersion that never goes backwards
// within one client, and selected == candidates[0] when no deadline was
// given.
func churnChecker(c *client, o *op, status int, body []byte) bool {
	if status != http.StatusOK {
		c.fail("%s answered %d: %.200s", o.url.Path, status, body)
		return false
	}
	if o.kind == kindWrite {
		return true
	}
	v, ok := jsonInt(body, needleVersion)
	if !ok || uint64(v) < c.lastVersion {
		c.fail("%s storeVersion went backwards: %d after %d", o.url.Path, v, c.lastVersion)
		return false
	}
	c.lastVersion = uint64(v)
	if o.kind == kindPredict {
		td, ok1 := jsonInt(body, needleTdisk)
		tn, ok2 := jsonInt(body, needleTnetwork)
		tc, ok3 := jsonInt(body, needleTcompute)
		te, ok4 := jsonInt(body, needleTexec)
		if !(ok1 && ok2 && ok3 && ok4) || td+tn+tc != te {
			c.fail("/predict is not additive: %d + %d + %d != %d", td, tn, tc, te)
			return false
		}
		return true
	}
	c.selects++
	if o.noDeadline && c.selects%selectDecodeEvery == 0 {
		var resp fgservice.SelectResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Selected == nil ||
			len(resp.Candidates) == 0 || *resp.Selected != resp.Candidates[0] {
			c.fail("/select without deadline did not select candidates[0]: %.300s", body)
			return false
		}
	}
	return true
}

// runClosed drives every client in a closed loop — the next op goes out
// when the previous one has answered — until dur has passed, and returns
// the wall time the pass took. Client c issues schedule positions pos,
// pos+n, pos+2n, … cyclically. With record off (warm-up) nothing is
// counted.
func runClosed(clients []*client, sched []op, dur time.Duration, chk checker, record bool) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				o := &sched[c.pos%len(sched)]
				c.pos += len(clients)
				t0 := time.Now()
				status, body, err := c.tgt.do(o)
				t1 := time.Now()
				if record {
					c.attempted++
					switch {
					case err != nil:
						c.fail("%s transport error: %v", o.url.Path, err)
					case chk(c, o, status, body):
						if len(c.samples) == cap(c.samples) {
							c.full = true
							return
						}
						c.samples = append(c.samples, packSample(t1.Sub(t0), o.kind))
					}
				}
				if !t1.Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// runOpen drives the clients in an open loop: op i is due at
// arrivals[i] after the start whether or not earlier ops have answered,
// and its latency counts from that due time — nothing subtracted — so a
// stall of the service, and of the generator sharing its cores, is
// charged to every op it delays. Op i is assigned to client i mod n
// (one keep-alive connection each). How late each send was and how many
// due ops were waiting behind it are recorded per client.
func runOpen(clients []*client, ops []op, arrivals []int64) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			n := len(clients)
			dueIdx := c.id
			for i := c.id; i < len(arrivals); i += n {
				o := &ops[i%len(ops)]
				due := start.Add(time.Duration(arrivals[i]))
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					sleepPrecisely(wait)
					now = time.Now()
				}
				status, _, err := c.tgt.do(o)
				t1 := time.Now()
				// Ops of this client already due when this one was sent.
				sinceStart := int64(now.Sub(start))
				for dueIdx < len(arrivals) && arrivals[dueIdx] <= sinceStart {
					dueIdx += n
				}
				c.backlogMax = max(c.backlogMax, (dueIdx-i)/n-1)
				c.late = append(c.late, uint32(min(max(int64(now.Sub(due)), 0), 1<<32-1)))
				c.attempted++
				if err != nil || status != http.StatusOK {
					c.fail("%s open loop: status %d: %v", o.url.Path, status, err)
					continue
				}
				c.samples = append(c.samples, packSample(t1.Sub(due), o.kind))
			}
		}(c)
	}
	wg.Wait()
}

// openLoopStats is how the open loop went: latency from the scheduled
// send time, how late sends were, and the most due ops that ever waited
// behind one on a single connection.
type openLoopStats struct {
	p50ms, p99ms         float64
	lateP50ms, lateP99ms float64
	backlogMax           int
	failed               int64
	firstFailure         string
}

func summarizeOpenLoop(clients []*client) openLoopStats {
	var s openLoopStats
	var lat, late []uint32
	for _, c := range clients {
		lat = append(lat, c.samples...)
		late = append(late, c.late...)
		s.backlogMax = max(s.backlogMax, c.backlogMax)
		s.failed += c.failed
		if s.firstFailure == "" {
			s.firstFailure = c.firstFailure
		}
	}
	slices.Sort(lat)
	slices.Sort(late)
	s.p50ms = float64(sampleNanos(quantile(lat, 0.5))) / 1e6
	s.p99ms = float64(sampleNanos(quantile(lat, 0.99))) / 1e6
	s.lateP50ms = float64(quantile(late, 0.5)) / 1e6
	s.lateP99ms = float64(quantile(late, 0.99)) / 1e6
	return s
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep
// is not used for pacing: while a process has network I/O in flight the
// Go runtime waits for its timers inside epoll_wait, whose timeout is in
// whole milliseconds, so sub-millisecond sleeps overshoot by about half
// a millisecond — more than the whole loopback round trip being
// measured.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// touchPages writes one word per page so a preallocated buffer is
// resident before the run: peak RSS then does not depend on how many
// samples the run happens to record.
func touchPages(buf []uint32) {
	for i := 0; i < len(buf); i += 1024 {
		buf[i] = 1
	}
}

// newClients builds n clients whose sample slices are segments of one
// preallocated, pre-touched backing array of n*perClient entries.
func newClients(n, perClient int, mk func() target) ([]*client, []uint32) {
	backing := make([]uint32, n*perClient)
	touchPages(backing)
	clients := make([]*client, n)
	for i := range clients {
		seg := backing[i*perClient : (i+1)*perClient : (i+1)*perClient]
		clients[i] = &client{id: i, pos: i, tgt: mk(), samples: seg[:0]}
	}
	return clients, backing
}

// passSamples copies what every client recorded since marks (its sample
// count when the pass began) into scratch and sorts it.
func passSamples(clients []*client, marks []int, scratch []uint32) []uint32 {
	n := 0
	for i, c := range clients {
		n += copy(scratch[n:], c.samples[marks[i]:])
	}
	out := scratch[:n]
	slices.Sort(out)
	return out
}

// gatherSamples compacts the clients' segments to the front of the
// shared backing array and sorts them — no second buffer, so the
// analysis does not move peak RSS.
func gatherSamples(clients []*client, backing []uint32) []uint32 {
	n := 0
	for _, c := range clients {
		n += copy(backing[n:], c.samples)
	}
	all := backing[:n]
	slices.Sort(all)
	return all
}

// kindQuantile is the q-quantile of the samples of one kind within the
// sorted mixed-kind sample array, found by counting — no per-kind copy.
func kindQuantile(sorted []uint32, k opKind, q float64) (nanos int64, count int) {
	for _, s := range sorted {
		if sampleKind(s) == k {
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	rank := nearestRank(count, q)
	seen := 0
	for _, s := range sorted {
		if sampleKind(s) == k {
			if seen == rank {
				return sampleNanos(s), count
			}
			seen++
		}
	}
	return 0, count
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"ftspanner"
)

// conn is one persistent HTTP/1.1 connection to the server, owned by one
// load goroutine: its own Transport, so that two conns are two sockets.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string, timeout time.Duration) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: timeout}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// roundTrip sends the request and reads the whole reply into c.buf.
func (c *conn) roundTrip(req *http.Request) (int, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// request encodes q for the wire: GET parameters, or the JSON body of a POST.
func (q *query) request(base string, post bool) (*http.Request, error) {
	if post {
		b := make([]byte, 0, 128)
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(q.u), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(q.v), 10)
		if len(q.faultV) > 0 {
			b = append(b, `,"fault_vertices":[`...)
			for i, x := range q.faultV {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(x), 10)
			}
			b = append(b, ']')
		}
		if len(q.faultE) > 0 {
			b = append(b, `,"fault_edges":[`...)
			for i, p := range q.faultE {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(p[0]), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(p[1]), 10)
				b = append(b, ']')
			}
			b = append(b, ']')
		}
		if q.maxDist > 0 {
			b = append(b, `,"max_distance":`...)
			b = strconv.AppendFloat(b, q.maxDist, 'g', -1, 64)
		}
		if q.noCache {
			b = append(b, `,"no_cache":true`...)
		}
		b = append(b, '}')
		req, err := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(b))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	b := make([]byte, 0, 128)
	b = append(b, base...)
	b = append(b, "/query?u="...)
	b = strconv.AppendInt(b, int64(q.u), 10)
	b = append(b, "&v="...)
	b = strconv.AppendInt(b, int64(q.v), 10)
	if len(q.faultV)+len(q.faultE) > 0 {
		b = append(b, "&faults="...)
		for i, x := range q.faultV {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		for i, p := range q.faultE {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p[0]), 10)
			b = append(b, '-')
			b = strconv.AppendInt(b, int64(p[1]), 10)
		}
	}
	if q.maxDist > 0 {
		b = append(b, "&max_distance="...)
		b = strconv.AppendFloat(b, q.maxDist, 'g', -1, 64)
	}
	if q.noCache {
		b = append(b, "&no_cache=1"...)
	}
	return http.NewRequest(http.MethodGet, string(b), nil)
}

// ask sends q and applies the per-reply check. A transport error, a status
// other than 200, an undecodable body and a wrong answer all come back as
// errors; wrong reports the last kind.
func (c *conn) ask(q *query, post bool, n int) (r queryReply, wrong bool, err error) {
	req, err := q.request(c.base, post)
	if err != nil {
		return r, false, err
	}
	status, err := c.roundTrip(req)
	if err != nil {
		return r, false, err
	}
	if status != http.StatusOK {
		return r, false, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil {
		return r, true, fmt.Errorf("decode reply: %w", err)
	}
	if err := checkReply(q, &r, n); err != nil {
		return r, true, err
	}
	return r, false, nil
}

// tally counts the operations of one phase.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
}

func (t *tally) fail(wrong bool, err error) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// querySamples is what a load goroutine keeps per answered query.
type querySamples struct {
	tally
	rttNs    []int64 // closed loop: send to reply; open loop: due time to reply
	serverNs []int64
	bytes    int64
	hits     int
}

func (s *querySamples) record(rtt time.Duration, r *queryReply, size int) {
	s.rttNs = append(s.rttNs, rtt.Nanoseconds())
	s.serverNs = append(s.serverNs, r.ServerNs)
	s.bytes += int64(size)
	if r.CacheHit {
		s.hits++
	}
}

func (s *querySamples) merge(o *querySamples) {
	s.tally.add(o.tally)
	s.rttNs = append(s.rttNs, o.rttNs...)
	s.serverNs = append(s.serverNs, o.serverNs...)
	s.bytes += o.bytes
	s.hits += o.hits
}

// closedLoop drives one connection: the next query is sent when the previous
// reply has arrived. first are asked before anything is drawn from the mix
// (the warm-up passes the pool here, so that every pooled key is cached).
func closedLoop(c *conn, in *inputs, rng *rand.Rand, first []query, until time.Time) *querySamples {
	s := &querySamples{}
	for i := 0; i < len(first) || time.Now().Before(until); i++ {
		var q query
		if i < len(first) {
			q = first[i]
		} else {
			q = in.sp.newQuery(in, rng)
		}
		s.attempted++
		sent := time.Now()
		r, wrong, err := c.ask(&q, in.sp.post, in.n)
		if err != nil {
			s.fail(wrong, err)
			continue
		}
		s.record(time.Since(sent), &r, c.buf.Len())
	}
	return s
}

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks in nanosleep(2) rather than time.Sleep: an idle Go runtime
// waits in epoll with millisecond granularity, which would add up to a
// millisecond of generator lateness to every open-loop latency.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) // an early wake-up is made up by the caller's next check
}

// openLoopResult is the generator's account of one open-loop phase.
type openLoopResult struct {
	latencyNs  []int64 // reply time minus due time (send time if sent on time), per answered request
	dueNs      []int64 // due time of the same requests, from the start
	lateNs     []int64 // send time minus due time, per request
	backlogMax int     // most requests due but not yet sent at any send
	elapsed    time.Duration
	offeredRPS float64
	achieved   float64
	saturated  bool
}

// onTime is how late a send may be and still count as on time: above the
// wake-up jitter of the generator's own sleep (median 0.1 ms on the
// reference box), far below a request queued behind a slow reply.
const onTime = 500 * time.Microsecond

// openLoop issues len(due) requests on one connection at their due times
// (offsets from start). A request is never sent before it is due; when
// the previous reply is late it is sent as soon as the connection is free,
// and its latency still counts from the due time, so a stall is charged to
// every request it delays. A request sent on time is timed from the send:
// the generator's wake-up jitter is not the program's. do reports whether
// request i was answered.
func openLoop(clk clock, start time.Time, due []time.Duration, window time.Duration, do func(i int) bool) openLoopResult {
	var res openLoopResult
	for i, d := range due {
		for wait := d - clk.Now().Sub(start); wait > 0; wait = d - clk.Now().Sub(start) {
			clk.Sleep(wait)
		}
		sent := clk.Now().Sub(start)
		res.lateNs = append(res.lateNs, (sent - d).Nanoseconds())
		backlog := 0
		for j := i + 1; j < len(due) && due[j] <= sent; j++ {
			backlog++
		}
		res.backlogMax = max(res.backlogMax, backlog)
		from := d
		if sent-d <= onTime {
			from = sent
		}
		if do(i) {
			res.latencyNs = append(res.latencyNs, (clk.Now().Sub(start) - from).Nanoseconds())
			res.dueNs = append(res.dueNs, d.Nanoseconds())
		}
	}
	res.elapsed = max(clk.Now().Sub(start), window)
	res.offeredRPS = float64(len(due)) / window.Seconds()
	res.achieved = float64(len(res.latencyNs)) / res.elapsed.Seconds()
	// Below 99 % of the offered rate the generator fell behind for good (a
	// backlog drained before the end does not stretch elapsed): the fixed
	// rate is then wrong for the box, and the latencies measure the queue.
	res.saturated = res.achieved < 0.99*res.offeredRPS
	return res
}

// batchBody is the /batch request of one update batch.
func batchBody(b ftspanner.UpdateBatch) []byte {
	type upd struct {
		U int     `json:"u"`
		V int     `json:"v"`
		W float64 `json:"w,omitempty"`
	}
	var body struct {
		Insert []upd `json:"insert,omitempty"`
		Delete []upd `json:"delete,omitempty"`
	}
	for _, x := range b.Insert {
		body.Insert = append(body.Insert, upd{x.U, x.V, x.W})
	}
	for _, x := range b.Delete {
		body.Delete = append(body.Delete, upd{U: x.U, V: x.V})
	}
	out, _ := json.Marshal(body) // plain ints and finite floats cannot fail
	return out
}

// postBatch sends one batch and returns the epoch the server acknowledged.
func (c *conn) postBatch(b ftspanner.UpdateBatch) (uint64, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/batch", bytes.NewReader(batchBody(b)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	}
	var r struct {
		Epoch    uint64 `json:"epoch"`
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil {
		return 0, fmt.Errorf("decode batch reply: %w", err)
	}
	if r.Inserted != len(b.Insert) || r.Deleted != len(b.Delete) {
		return r.Epoch, fmt.Errorf("batch reply counts %d+%d, sent %d+%d", r.Inserted, r.Deleted, len(b.Insert), len(b.Delete))
	}
	return r.Epoch, nil
}

// writerResult is the churn writer's account of phase B.
type writerResult struct {
	tally
	rttNs     []int64 // per acknowledged batch, in schedule order
	sentNs    []int64 // send time of the same batches, from the phase start
	lastEpoch uint64
}

// writeBatches posts the batches on one connection, paced closed loop: batch
// i is due at start + i*gap and goes out at max(due, previous reply). Each
// acknowledged batch is applied to the mirror g.
func writeBatches(c *conn, g *ftspanner.Graph, batches []ftspanner.UpdateBatch, start time.Time, gap time.Duration) *writerResult {
	res := &writerResult{}
	for i, b := range batches {
		if wait := time.Until(start.Add(time.Duration(i) * gap)); wait > 0 {
			time.Sleep(wait)
		}
		res.attempted++
		sent := time.Now()
		epoch, err := c.postBatch(b)
		if err != nil {
			// The mirror no longer matches whatever the server did: stop.
			res.fail(false, fmt.Errorf("batch %d: %w", i, err))
			return res
		}
		res.rttNs = append(res.rttNs, time.Since(sent).Nanoseconds())
		res.sentNs = append(res.sentNs, sent.Sub(start).Nanoseconds())
		if epoch <= res.lastEpoch {
			res.fail(true, fmt.Errorf("batch %d acknowledged at epoch %d after %d", i, epoch, res.lastEpoch))
		}
		res.lastEpoch = epoch
		if err := applyToMirror(g, b); err != nil {
			res.fail(true, fmt.Errorf("batch %d accepted by the server, refused by the mirror: %w", i, err))
			return res
		}
	}
	return res
}

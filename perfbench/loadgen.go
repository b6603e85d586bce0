package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one answered, checked request of the measured phase.
type sample struct {
	lat   time.Duration // request written to answer read
	end   time.Duration // answer read, from the start of the measured phase
	bytes int           // document bytes
}

// client is one closed-loop client: one keep-alive connection, its own
// share of the pool, and its own checker, so clients share nothing.
type client struct {
	own       []int
	chk       *checker
	samples   []sample
	attempted int
	failed    int
	errs      []error
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 3 {
		c.errs = append(c.errs, err)
	}
}

// loadResult is the outcome of one closed-loop run.
type loadResult struct {
	clients  []*client
	dials    int64
	cpuShare float64   // generator CPU seconds / (wall seconds × nproc)
	steal    []float64 // CPU ticks stolen from the machine per slice of the measured phase
	stolen   float64   // share of the machine's CPU time stolen during the measured phase
}

// runLoad drives the daemon with nClients closed-loop clients: warm
// unmeasured, then measured, each client sending its next document only
// after it has read the answer to the previous one. Each client owns
// one keep-alive connection and writes requests encoded before the run
// starts, so the loop does no encoding and starts no goroutines.
// The result is always returned; the error reports an exceeded
// connection cap, which fails the run.
func runLoad(w *workload, ref *reference, addr string, nClients, nproc int, warm, measure time.Duration) (*loadResult, error) {
	clients := make([]*client, nClients)
	for c := range clients {
		clients[c] = &client{chk: newChecker(ref, w)}
	}
	for i := range w.docs {
		clients[i%nClients].own = append(clients[i%nClients].own, i)
	}
	reqs := encodeRequests(w, addr)

	var dials atomic.Int64
	wall0 := time.Now()
	start := wall0.Add(warm)
	end := start.Add(measure)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	var steal []float64
	var stolen float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		steal, stolen = sampleSteal(start, int(measure/sliceWidth))
	}()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dials.Add(1)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				c.fail(err)
				return
			}
			defer conn.Close()
			// A daemon that stops answering cannot hang the benchmark.
			if err := conn.SetDeadline(end.Add(30 * time.Second)); err != nil {
				c.fail(err)
				return
			}
			if w.endpoint == "/stream" {
				c.runStream(conn, reqs, w.docs, start, end)
			} else {
				c.runRequests(conn, reqs, w.docs, start, end)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wall0)
	res := &loadResult{
		clients:  clients,
		dials:    dials.Load(),
		cpuShare: (cpuTime() - cpu0).Seconds() / (wall.Seconds() * float64(nproc)),
		steal:    steal,
		stolen:   stolen,
	}
	if res.dials > int64(nClients) || nClients > nproc {
		return res, fmt.Errorf("connection cap exceeded: %d connections for %d clients on %d CPUs", res.dials, nClients, nproc)
	}
	return res, nil
}

// encodeRequests builds every request's bytes. For /detect and /segment
// that is a whole HTTP/1.1 request per document; for /stream it is one
// chunk of the chunked request body per document, behind a shared head.
func encodeRequests(w *workload, addr string) [][]byte {
	reqs := make([][]byte, len(w.docs))
	for i, d := range w.docs {
		if w.endpoint == "/stream" {
			reqs[i] = fmt.Appendf(nil, "%x\r\n%s\r\n", len(d.body), d.body)
			continue
		}
		reqs[i] = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain; charset=iso-8859-1\r\nContent-Length: %d\r\n\r\n%s",
			w.endpoint, addr, len(d.body), d.body)
	}
	return reqs
}

// runRequests is the request/response loop of /detect and /segment.
func (c *client) runRequests(conn net.Conn, reqs [][]byte, docs []doc, start, end time.Time) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var body bytes.Buffer
	for k := 0; ; k++ {
		i := c.own[k%len(c.own)]
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		c.attempted++
		_, err := conn.Write(reqs[i])
		var resp *http.Response
		if err == nil {
			resp, err = http.ReadResponse(br, nil)
		}
		if err == nil {
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("doc %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(body.Bytes()))
			}
		}
		t1 := time.Now()
		if err != nil {
			// The connection's state is unknown after a transport error.
			c.fail(fmt.Errorf("doc %d: %w", i, err))
			return
		}
		if err := c.chk.check(i, body.Bytes()); err != nil {
			c.fail(err)
			continue
		}
		if !t0.Before(start) {
			c.samples = append(c.samples, sample{lat: t1.Sub(t0), end: t1.Sub(start), bytes: len(docs[i].text)})
		}
	}
}

// runStream keeps one full-duplex /stream exchange open for the whole
// run: it writes one NDJSON line as one chunk, reads its result line,
// and only then writes the next.
func (c *client) runStream(conn net.Conn, chunks [][]byte, docs []doc, start, end time.Time) {
	head := fmt.Appendf(nil, "POST /stream HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n",
		conn.RemoteAddr())
	br := bufio.NewReaderSize(conn, 64<<10)
	var lines *bufio.Reader
	var resp *http.Response
	for k := 0; ; k++ {
		i := c.own[k%len(c.own)]
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		c.attempted++
		var err error
		if resp == nil {
			_, err = conn.Write(append(head, chunks[i]...))
			if err == nil {
				// The daemon sends its headers with the first result line.
				resp, err = http.ReadResponse(br, nil)
			}
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("stream status %d", resp.StatusCode)
			}
			if err != nil {
				c.fail(err)
				return
			}
			lines = bufio.NewReaderSize(resp.Body, 64<<10)
		} else if _, err = conn.Write(chunks[i]); err != nil {
			c.fail(fmt.Errorf("doc %d: writing stream line: %w", i, err))
			return
		}
		line, err := lines.ReadSlice('\n')
		t1 := time.Now()
		if err != nil {
			c.fail(fmt.Errorf("doc %d: reading stream result: %w", i, err))
			return
		}
		if err := c.chk.check(i, line); err != nil {
			c.fail(err)
			continue
		}
		if !t0.Before(start) {
			c.samples = append(c.samples, sample{lat: t1.Sub(t0), end: t1.Sub(start), bytes: len(docs[i].text)})
		}
	}
	if resp == nil {
		return
	}
	// The last chunk ends the exchange; the daemon then ends its
	// response, which must carry no further result lines.
	if _, err := conn.Write([]byte("0\r\n\r\n")); err != nil {
		c.fail(fmt.Errorf("ending stream: %w", err))
		return
	}
	if rest, err := io.ReadAll(lines); err != nil || len(rest) != 0 {
		c.fail(fmt.Errorf("stream ended with %q, %v", rest, err))
	}
	resp.Body.Close()
}

// sampleSteal reads the machine's stolen CPU time at every slice
// boundary of the measured phase. It returns nil where /proc/stat is
// unavailable.
func sampleSteal(start time.Time, n int) (perSlice []float64, share float64) {
	var totals, steals []float64
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * sliceWidth)))
		total, steal, ok := machineCPU()
		if !ok {
			return nil, 0
		}
		totals, steals = append(totals, total), append(steals, steal)
	}
	for k := 0; k < n; k++ {
		perSlice = append(perSlice, steals[k+1]-steals[k])
	}
	if dt := totals[n] - totals[0]; dt > 0 {
		share = (steals[n] - steals[0]) / dt
	}
	return perSlice, share
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick. The timed phases are cut into short segments, and
// between any two of them the benchmark drives, in the same way and for
// a fraction of a second, a second system of its own: refSys, a frozen
// miniature of the shape of the system under test. One goroutine
// quantizes samples out of a large slab into a reused buffer and writes
// them to a loopback TCP connection; a reader goroutine reads each job
// off the socket and dequantizes it into a pooled workspace; GOMAXPROCS
// workers read the job through and run a fixed compute kernel on its
// captures, and report back. It moves the same number of bytes per job
// as the workload moves per transmission and computes for about as
// long, so whatever the host does to the system under test (a stolen
// core, a busy sibling thread, a slower memory bus, slow wake-ups) it
// does to the yardstick a moment before and a moment after. The
// benchmark reports the system's numbers as ratios to the yardstick's
// (summarize in run.go). refSys shares no code with the system under
// test, so no change to the system can move it.

const (
	refCaptureSamples = (calAntennas + 1) * calSamples // 9 x 640, as arraytrack-ap sends
	refCaptureBytes   = refCaptureSamples * 4          // two int16 a sample
	refSlabSamples    = 4 << 20                        // 64 MB of complex128 to encode from
	refWorkspaces     = closedLoopWindow + 4
)

type refWork struct {
	id  uint32
	raw []byte
	x   []complex128
}

type refSys struct {
	ln       net.Listener
	conn     net.Conn
	samples  int // per job
	passes   int // scans for the peak per job when encoding
	quarters int // quarter rounds of the kernel per job

	slab    []complex128
	slabOff int
	buf     []byte
	lut     []float64

	jobs chan *refWork
	free chan *refWork
	wg   sync.WaitGroup

	origin  time.Time
	mu      sync.Mutex
	due     [1024]time.Duration
	lat     []float64
	sent    int64
	results atomic.Int64
	wake    chan struct{}
}

// startRef builds a yardstick whose jobs carry captures captures and
// are otherwise of the given shape.
func startRef(captures int, shape refShape) (*refSys, error) {
	r := &refSys{
		samples:  captures * refCaptureSamples,
		passes:   shape.passes,
		quarters: shape.quarters,
		slab:     make([]complex128, refSlabSamples),
		lut:      theCalKernel.lut,
		jobs:     make(chan *refWork, refWorkspaces),
		free:     make(chan *refWork, refWorkspaces),
		origin:   time.Now(),
		wake:     make(chan struct{}, 1),
	}
	v := uint32(2463534242)
	for i := range r.slab {
		v ^= v << 13
		v ^= v >> 17
		v ^= v << 5
		r.slab[i] = complex(float64(int32(v))/(1<<31), float64(int32(v<<7))/(1<<31))
	}
	r.buf = make([]byte, 8+4*r.samples)
	for i := 0; i < refWorkspaces; i++ {
		r.free <- &refWork{raw: make([]byte, 4*r.samples), x: make([]complex128, r.samples)}
	}
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := r.ln.Accept()
		accepted <- c
	}()
	if r.conn, err = net.Dial("tcp", r.ln.Addr().String()); err != nil {
		r.ln.Close()
		return nil, err
	}
	server := <-accepted
	if server == nil {
		r.conn.Close()
		r.ln.Close()
		return nil, errors.New("yardstick: accept failed")
	}
	r.wg.Add(1)
	go r.read(server)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		r.wg.Add(1)
		go r.work()
	}
	return r, nil
}

// stop closes the connection and returns once the reader and the
// workers have exited.
func (r *refSys) stop() {
	r.conn.Close()
	r.ln.Close()
	r.wg.Wait()
}

// read is the yardstick's ingest: one job at a time off the socket,
// dequantized through a table into a pooled workspace.
func (r *refSys) read(c net.Conn) {
	defer r.wg.Done()
	defer close(r.jobs)
	defer c.Close()
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		w := <-r.free
		w.id = binary.LittleEndian.Uint32(hdr[:4])
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		if n != len(w.raw) {
			return
		}
		if _, err := io.ReadFull(c, w.raw); err != nil {
			return
		}
		for i := range w.x {
			re := binary.LittleEndian.Uint16(w.raw[4*i:])
			im := binary.LittleEndian.Uint16(w.raw[4*i+2:])
			w.x[i] = complex(r.lut[re], r.lut[im])
		}
		r.jobs <- w
	}
}

// work is one of the yardstick's workers.
func (r *refSys) work() {
	defer r.wg.Done()
	k := newCalKernel()
	for w := range r.jobs {
		// One pass over every sample of the job, as a fix reads every
		// sample of its captures, then the kernel's quarter rounds, each on
		// the next of the job's captures: the data comes out of memory the
		// reader wrote on another core, not out of this worker's cache.
		// (A kernel that kept to one cached capture slowed down less than
		// the system did when the host's other guests were busy.)
		acc := 0.0
		for _, v := range w.x {
			acc += real(v)*real(v) + imag(v)*imag(v)
		}
		k.sink += acc
		captures := len(w.x) / refCaptureSamples
		for q := 0; q < r.quarters; q++ {
			c := q % captures
			k.x = w.x[c*refCaptureSamples : (c+1)*refCaptureSamples]
			k.computeQuarter(q % 4)
		}
		id := w.id
		r.free <- w
		now := time.Since(r.origin)
		r.mu.Lock()
		r.lat = append(r.lat, float64(now-r.due[id%uint32(len(r.due))])/float64(time.Millisecond))
		r.mu.Unlock()
		r.results.Add(1)
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// send encodes the next job (a pass for the scale, a pass to quantize,
// as an AP's encoder does), waits for its due time (zero: now) and
// writes it.
func (r *refSys) send(due time.Time) error {
	if r.slabOff+r.samples > len(r.slab) {
		r.slabOff = 0
	}
	src := r.slab[r.slabOff : r.slabOff+r.samples]
	r.slabOff += r.samples
	peak := 0.0
	for pass := 0; pass < r.passes; pass++ {
		for _, s := range src {
			if a := real(s); a > peak {
				peak = a
			} else if -a > peak {
				peak = -a
			}
			if a := imag(s); a > peak {
				peak = a
			} else if -a > peak {
				peak = -a
			}
		}
	}
	scale := 32767 / (peak + 1e-12)
	id := uint32(r.sent)
	binary.LittleEndian.PutUint32(r.buf[:4], id)
	binary.LittleEndian.PutUint32(r.buf[4:8], uint32(4*r.samples))
	out := r.buf[8:]
	for i, s := range src {
		binary.LittleEndian.PutUint16(out[4*i:], uint16(int16(real(s)*scale)))
		binary.LittleEndian.PutUint16(out[4*i+2:], uint16(int16(imag(s)*scale)))
	}
	sleepUntil(due)
	if due.IsZero() {
		due = time.Now()
	}
	r.mu.Lock()
	r.due[id%uint32(len(r.due))] = due.Sub(r.origin)
	r.mu.Unlock()
	if _, err := r.conn.Write(r.buf); err != nil {
		return err
	}
	r.sent++
	return nil
}

func (r *refSys) await(window int64) bool {
	deadline := time.Now().Add(drainDeadline)
	for r.sent-r.results.Load() > window {
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-r.wake:
		case <-t.C:
		}
		t.Stop()
	}
	return true
}

// refShape sizes the yardstick's jobs for one workload: passes scans of
// the samples when encoding, quarters quarter rounds of the kernel when
// computing. rate, cpuMS and latMS are what a yardstick of that shape
// does on the reference box on an ordinary day, driven as the workload
// drives the system: the benchmark reports the system's ratio to the
// yardstick times these, so that the numbers read as fixes per second
// and milliseconds. They are frozen with the shape.
type refShape struct {
	passes, quarters   int
	rate, cpuMS, latMS float64
}

// refSample is what one stretch of yardstick traffic measured.
type refSample struct {
	rate  float64 // jobs per second
	cpuMS float64 // process CPU per job
	latMS float64 // median latency from the due time
}

// measure drives the yardstick for d the way the phase drives the
// system: closed loop with window jobs unanswered when rate is zero,
// else open loop at rate jobs a second.
func (r *refSys) measure(d time.Duration, window int64, rate float64) (refSample, error) {
	r.mu.Lock()
	r.lat = r.lat[:0]
	r.mu.Unlock()
	errStuck := errors.New("yardstick: no result for 10 s")
	t0, cpu0, n0 := time.Now(), cpuTime(), r.results.Load()
	end := t0.Add(d)
	if rate == 0 {
		for time.Now().Before(end) {
			if !r.await(window - 1) {
				return refSample{}, errStuck
			}
			if err := r.send(time.Time{}); err != nil {
				return refSample{}, err
			}
		}
	} else {
		gap := float64(time.Second) / rate
		for i := 0; ; i++ {
			due := t0.Add(time.Duration((float64(i) + 0.5) * gap))
			if !due.Before(end) {
				break
			}
			if err := r.send(due); err != nil {
				return refSample{}, err
			}
		}
	}
	if !r.await(0) {
		return refSample{}, errStuck
	}
	n := float64(r.results.Load() - n0)
	s := refSample{rate: n / time.Since(t0).Seconds(), cpuMS: float64(cpuTime()-cpu0) / float64(time.Millisecond) / n}
	r.mu.Lock()
	s.latMS = median(r.lat)
	r.mu.Unlock()
	return s, nil
}

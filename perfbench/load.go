package main

import (
	"sync"
	"time"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one scheduled operation: a read of pool source src, or a write
// flipping catalog cat to version ver, which the server must install as
// generation gen.
type op struct {
	kind opKind
	src  int
	cat  int
	ver  int
	gen  int
	due  time.Duration // offset from the phase start
	// prev is closed when the previous write to cat has finished and
	// done when this one has: writes to one catalog go out in schedule
	// order, so generation parity names the content.
	prev, done chan struct{}
}

// outcome is what the load generator observed for one op.
type outcome struct {
	op   *op
	sent time.Duration // offset from the phase start
	end  time.Duration
	ok   bool
	body []byte // kept only when the answer is checked after the run
	size int
	err  string
}

// latencyMS is the op's latency from its due time, so in an open loop a
// stall also counts against the requests queued behind it. In a closed
// loop an op is due when it is sent.
func (o outcome) latencyMS() float64 { return float64(o.end-o.op.due) / float64(time.Millisecond) }

// lateMS is how far behind its due time the op was sent: generator
// lateness plus waiting for a free connection.
func (o outcome) lateMS() float64 { return float64(o.sent-o.op.due) / float64(time.Millisecond) }

// writeChain hands out per-catalog write ordering and the generation
// and version each write produces. Every catalog starts at generation 1
// (its PUT) holding version 0.
type writeChain struct {
	last []chan struct{}
	gen  []int
}

func newWriteChain(n int) *writeChain {
	c := &writeChain{last: make([]chan struct{}, n), gen: make([]int, n)}
	for i := range c.last {
		c.last[i] = make(chan struct{})
		close(c.last[i])
		c.gen[i] = 1
	}
	return c
}

// write schedules the next write to cat.
func (c *writeChain) write(cat int, due time.Duration) *op {
	c.gen[cat]++
	o := &op{kind: opWrite, cat: cat, gen: c.gen[cat], due: due, prev: c.last[cat], done: make(chan struct{})}
	o.ver, _ = versionOf(o.gen)
	c.last[cat] = o.done
	return o
}

// schedule builds a fixed-rate open-loop schedule of the reads (pool
// sources) at readRate and writes to the catalogs wo at writeRate,
// merged in due order, reads first on ties. Churn writes at half the
// read rate, so every write is due together with a read and runs while
// that read's match-any is retrieving: installing the new handle waits
// for the retrieval to release the fused index. Writes that run alone
// take a third as long; were the two kinds mixed, the write median
// would sit on the edge between them and jump with every change in how
// long reads or writes take.
func schedule(chain *writeChain, reads []int, readRate float64, wo []int, writeRate float64) []*op {
	ops := make([]*op, 0, len(reads))
	for i, src := range reads {
		ops = append(ops, &op{kind: opRead, src: src, due: time.Duration(float64(i) / readRate * float64(time.Second))})
	}
	writes := make([]*op, 0, len(wo))
	for k, cat := range wo {
		writes = append(writes, chain.write(cat, time.Duration(float64(k)/writeRate*float64(time.Second))))
	}
	// Merge by due time.
	out := make([]*op, 0, len(ops)+len(writes))
	i, j := 0, 0
	for i < len(ops) || j < len(writes) {
		if j == len(writes) || (i < len(ops) && ops[i].due <= writes[j].due) {
			out = append(out, ops[i])
			i++
		} else {
			out = append(out, writes[j])
			j++
		}
	}
	return out
}

// executor runs one op on behalf of worker w and reports whether the
// answer was correct; body is returned when the check has to wait until
// after the run.
type executor interface {
	run(w int, o *op) (ok bool, body []byte, size int, err string)
}

// perform runs o on worker w, waiting first for the previous write to
// the same catalog.
func perform(ex executor, w int, o *op, start time.Time) outcome {
	sent := time.Since(start)
	if o.kind == opWrite {
		<-o.prev
	}
	ok, body, size, err := ex.run(w, o)
	if o.kind == opWrite {
		close(o.done)
	}
	return outcome{op: o, sent: sent, end: time.Since(start), ok: ok, body: body, size: size, err: err}
}

// openLoop sends ops at their due times over workers connections. A due
// op waits for a free connection and is never dropped; its latency runs
// from its due time.
func openLoop(ops []*op, workers int, ex executor) []outcome {
	res := make([]outcome, len(ops))
	// Sized to the number of sends, so the dispatcher never blocks and
	// its timing stays independent of the workers.
	jobs := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				res[i] = perform(ex, w, ops[i], start)
			}
		}(w)
	}
	for i, o := range ops {
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedLoop keeps workers clients busy with back-to-back reads of the
// sources in order (whole poolSize blocks, so the mix is balanced) until
// d has passed and the current block is done, while writes (with due
// offsets below d) are dispatched on their own fixed schedule and taken
// ahead of the next read. It returns the reads, the writes, and the span
// from the start to the last read's end.
func closedLoop(d time.Duration, workers int, order []int, writes []*op, ex executor) (reads, wres []outcome, elapsed time.Duration) {
	// Sized to the number of sends, so the dispatcher never blocks.
	wq := make(chan *op, len(writes))
	start := time.Now()
	go func() {
		defer close(wq)
		for _, o := range writes {
			if wait := o.due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			wq <- o
		}
	}()
	var mu sync.Mutex // guards next
	next := 0
	nextRead := func() *op {
		mu.Lock()
		defer mu.Unlock()
		if next%poolSize == 0 && (time.Since(start) >= d || next == len(order)) {
			return nil
		}
		o := &op{kind: opRead, src: order[next], due: time.Since(start)}
		next++
		return o
	}
	per := make([][2][]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := wq
			for {
				select {
				case o, ok := <-q:
					if !ok {
						q = nil // a nil channel is never selected again
						continue
					}
					per[w][1] = append(per[w][1], perform(ex, w, o, start))
					continue
				default:
				}
				o := nextRead()
				if o == nil {
					break
				}
				per[w][0] = append(per[w][0], perform(ex, w, o, start))
			}
			// Reads are over; finish the writes still to come.
			if q != nil {
				for o := range q {
					per[w][1] = append(per[w][1], perform(ex, w, o, start))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, p := range per {
		reads = append(reads, p[0]...)
		wres = append(wres, p[1]...)
	}
	for _, r := range reads {
		elapsed = max(elapsed, r.end)
	}
	return reads, wres, elapsed
}

// backToBack runs ops one after another on worker 0, each due when it
// is sent.
func backToBack(ops []*op, ex executor) []outcome {
	start := time.Now()
	out := make([]outcome, len(ops))
	for i, o := range ops {
		o.due = time.Since(start)
		out[i] = perform(ex, 0, o, start)
	}
	return out
}

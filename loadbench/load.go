package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// outcome is one sent request as the generator saw it.
type outcome struct {
	req     *request
	rep     *reply // nil on a transport error
	latency time.Duration
	lag     time.Duration // how late the generator released it
	cpu     time.Duration // the process's CPU time when it was released
	err     error         // transport error or wrong answer
}

// drive sends reqs over conns connections. With dues, arrivals are
// open-loop: request i is released at start+dues[i] whatever the
// daemon is doing, and its latency runs from that due time, so time
// spent queued behind a slow answer counts. Without dues every request
// is due at start (a closed batch, used to warm the daemon). Outcomes
// come back in request order, not yet judged: see judge.
func drive(c *client, reqs []*request, dues []time.Duration, conns int) []outcome {
	out := make([]outcome, len(reqs))
	// Sized to the number of sends: the generator never blocks, so a
	// stalled daemon cannot delay later releases.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				due := start
				if dues != nil {
					due = start.Add(dues[i])
				}
				rep, err := c.send(r)
				o := &out[i]
				o.latency = time.Since(due)
				o.req, o.rep, o.err = r, rep, err
			}
		}()
	}
	for i := range reqs {
		if dues != nil {
			if wait := time.Until(start.Add(dues[i])); wait > 0 {
				time.Sleep(wait)
			}
			out[i].lag = time.Since(start.Add(dues[i]))
		}
		out[i].cpu = cpuTime()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// judge checks every answered outcome with check and returns outs. It
// runs after drive, so the generator's own checking never holds a
// connection back from its next send or counts in the window's CPU.
func judge(outs []outcome, check func(*request, *reply) error) []outcome {
	for i := range outs {
		if o := &outs[i]; o.err == nil {
			o.err = check(o.req, o.rep)
		}
	}
	return outs
}

// failures returns the number of failed outcomes and their messages.
func failures(outs []outcome) (int, []string) {
	var msgs []string
	for _, o := range outs {
		if o.err != nil {
			msgs = append(msgs, o.err.Error())
		}
	}
	return len(msgs), msgs
}

// cpuTime is the process's user+system CPU time so far. getrusage
// with RUSAGE_SELF and a valid buffer cannot fail.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

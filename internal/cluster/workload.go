package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dissent"
)

// workloadStats collects a driver's own measurements; the orchestrator
// merges them into the scenario report as informational rows.
type workloadStats struct {
	rows []Row
}

func (ws *workloadStats) add(name string, value float64, unit string) {
	ws.rows = append(ws.rows, Row{Name: name, Value: value, Unit: unit})
}

// runWorkload dispatches the scenario's traffic driver and, when
// configured, background churn alongside it. ctx bounds the measured
// window; drivers that finish their work list early return early.
func runWorkload(ctx context.Context, dep *deployment, sc Scenario) (*workloadStats, error) {
	ws := &workloadStats{}

	var churnWG sync.WaitGroup
	var churnStorms uint64
	if n := sc.Workload.ChurnVictims; n > 0 {
		// Background victims come from the tail of the client list, but
		// never clients the workload itself occupies there: socks-browse
		// parks its exit on the last client, churn-storm its own victims.
		pool := dep.clients
		switch sc.Workload.Kind {
		case WorkloadSocksBrowse:
			pool = pool[:len(pool)-1]
		case WorkloadChurnStorm:
			pool = pool[:len(pool)-sc.Workload.Victims]
		}
		victims := pool[len(pool)-n:]
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			storms, _ := churnClients(ctx, dep, victims, 0)
			atomic.StoreUint64(&churnStorms, uint64(storms))
		}()
	}

	var err error
	switch sc.Workload.Kind {
	case WorkloadIdle:
		select {
		case <-ctx.Done():
		}
	case WorkloadMicroblog:
		err = driveMicroblog(ctx, dep, sc.Workload, ws)
	case WorkloadSocksBrowse:
		err = driveSocksBrowse(ctx, dep, sc.Topology, sc.Workload, ws)
	case WorkloadFileshare:
		err = driveFileshare(ctx, dep, sc.Workload, ws)
	case WorkloadChurnStorm:
		err = driveChurnStorm(ctx, dep, sc.Workload, ws)
	}
	churnWG.Wait()
	if sc.Workload.ChurnVictims > 0 {
		ws.add("background-churn-cycles", float64(atomic.LoadUint64(&churnStorms)), "cycles")
	}
	return ws, err
}

// mbMarker prefixes every microblog post so collectors can count
// deliveries even when the engine coalesces queued posts into one slot
// payload.
var mbMarker = []byte("MBPOST|")

// driveMicroblog has the first Posters clients broadcast fixed-size
// posts on a period while every client counts marker deliveries. The
// fan-out ratio (delivered / sent*clients) measures how completely the
// anonymous broadcast reached the membership.
func driveMicroblog(ctx context.Context, dep *deployment, w Workload, ws *workloadStats) error {
	var sent, delivered atomic.Uint64

	// Collectors: every client drains its anonymous channel, counting
	// marker occurrences.
	var wg sync.WaitGroup
	for _, c := range dep.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case d, ok := <-c.Messages():
					if !ok {
						return
					}
					if n := bytes.Count(d.Data, mbMarker); n > 0 {
						delivered.Add(uint64(n))
					}
				}
			}
		}()
	}

	// Posters.
	post := func(poster int, seq uint64) []byte {
		head := fmt.Sprintf("%s%d|%d|", mbMarker, poster, seq)
		buf := make([]byte, w.PostBytes)
		copy(buf, head)
		return buf
	}
	every := w.PostEvery
	if every <= 0 {
		every = 200 * time.Millisecond
	}
	for i := 0; i < w.Posters; i++ {
		i := i
		node := dep.clients[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			var seq uint64
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := node.Send(ctx, post(i, seq)); err != nil {
						return
					}
					seq++
					sent.Add(1)
				}
			}
		}()
	}

	<-ctx.Done()
	wg.Wait()

	s, d := sent.Load(), delivered.Load()
	ws.add("microblog-posts-sent", float64(s), "posts")
	ws.add("microblog-deliveries", float64(d), "deliveries")
	if s > 0 {
		expected := float64(s) * float64(len(dep.clients))
		ws.add("microblog-fanout-ratio", float64(d)/expected, "ratio")
	}
	if s == 0 {
		return fmt.Errorf("cluster: microblog sent nothing (rounds never turned over?)")
	}
	return nil
}

// driveFileshare moves FileBytes from client 0 through its pseudonym
// slot in ChunkBytes pieces; client 1 observes the sender's slot and
// measures goodput. The driver returns once the transfer lands or the
// window closes.
func driveFileshare(ctx context.Context, dep *deployment, w Workload, ws *workloadStats) error {
	sender, observer := dep.clients[0], dep.clients[1]
	slot := sender.Slot()
	if slot < 0 {
		return fmt.Errorf("cluster: fileshare sender has no slot")
	}
	chunk := w.ChunkBytes
	if chunk <= 0 {
		chunk = 4 << 10
	}

	done := make(chan struct{})
	var got atomic.Uint64
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case d, ok := <-observer.Messages():
				if !ok {
					return
				}
				if d.Slot == slot {
					if got.Add(uint64(len(d.Data))) >= uint64(w.FileBytes) {
						return
					}
				}
			}
		}
	}()

	start := time.Now()
	payload := bytes.Repeat([]byte{0xD1}, chunk)
	for off := 0; off < w.FileBytes; off += chunk {
		n := chunk
		if w.FileBytes-off < n {
			n = w.FileBytes - off
		}
		if err := sender.Send(ctx, payload[:n]); err != nil {
			return fmt.Errorf("cluster: fileshare send: %w", err)
		}
	}
	<-done
	elapsed := time.Since(start)

	moved := got.Load()
	ws.add("fileshare-bytes-received", float64(moved), "bytes")
	if secs := elapsed.Seconds(); secs > 0 {
		ws.add("fileshare-goodput", float64(moved)/secs/1024, "KiB/s")
	}
	if moved == 0 {
		return fmt.Errorf("cluster: fileshare moved nothing")
	}
	return nil
}

// driveChurnStorm mass-expels the last Victims clients and rejoins
// them concurrently, Storms times over — every expulsion and
// re-admission is a certified roster update landing at an epoch
// boundary.
func driveChurnStorm(ctx context.Context, dep *deployment, w Workload, ws *workloadStats) error {
	victims := dep.clients[len(dep.clients)-w.Victims:]
	storms, err := churnClients(ctx, dep, victims, w.Storms)
	ws.add("churn-storms-completed", float64(storms), "storms")
	ws.add("churn-victims-per-storm", float64(len(victims)), "clients")
	if err != nil {
		return err
	}
	if storms == 0 {
		return fmt.Errorf("cluster: no churn storm completed inside the window")
	}
	return nil
}

// churnClients expels every victim via server 0, waits for each to
// observe its own expulsion, then rejoins them all concurrently. It
// repeats until `storms` cycles complete (0 = until ctx closes) and
// returns the completed cycle count.
func churnClients(ctx context.Context, dep *deployment, victims []*dissent.Node, storms int) (int, error) {
	// Subscribe before the first expel so no event is missed.
	expelled := make([]<-chan dissent.Event, len(victims))
	for i, v := range victims {
		expelled[i] = v.Subscribe(dissent.EventMemberExpelled)
	}
	completed := 0
	for storms == 0 || completed < storms {
		if ctx.Err() != nil {
			break
		}
		// Mass expel.
		for _, v := range victims {
			if err := dep.servers[0].expel(v.ID()); err != nil {
				return completed, fmt.Errorf("cluster: expel %s: %w", v.ID(), err)
			}
		}
		// Every victim observes its own expulsion...
		allSaw := true
		for i, v := range victims {
			if !awaitExpel(ctx, expelled[i], v.ID()) {
				allSaw = false
				break
			}
		}
		if !allSaw {
			break
		}
		// ...then the whole set rejoins concurrently.
		errs := make(chan error, len(victims))
		for _, v := range victims {
			v := v
			go func() { errs <- v.Rejoin(ctx) }()
		}
		ok := true
		for range victims {
			if err := <-errs; err != nil {
				ok = false
			}
		}
		if !ok {
			break
		}
		completed++
	}
	return completed, nil
}

// awaitExpel drains ch until the victim's own expulsion shows up or
// ctx closes.
func awaitExpel(ctx context.Context, ch <-chan dissent.Event, id dissent.NodeID) bool {
	for {
		select {
		case <-ctx.Done():
			return false
		case e, ok := <-ch:
			if !ok {
				return false
			}
			if e.Culprit == id {
				return true
			}
		}
	}
}

package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"dissent"
	"dissent/internal/browse"
	"dissent/internal/socks"
)

// driveSocksBrowse replays the paper's web-browsing workload (Fig. 10)
// through a live session: the last client runs the SOCKS exit, the
// first Browsers clients fetch scaled-down corpus pages from a local
// origin server, flow-multiplexed through the anonymous channel.
//
// Direction discrimination is by pseudonym slot: every member sees
// every slot's payloads, so the exit ignores its own slot (its own
// responses) and browsers ignore theirs (their own requests), matching
// response frames to requests by flow ID — each browser draws IDs from
// a disjoint range.
func driveSocksBrowse(ctx context.Context, dep *deployment, t Topology, w Workload, ws *workloadStats) error {
	// Local origin: "GET <n>\n" -> n bytes -> close. Stands in for the
	// public web so page size distributions stay exact and offline.
	origin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer origin.Close()
	go serveOrigin(origin)

	// Scaled-down Alexa-shaped corpus: same log-normal shape as the
	// Fig. 10 replay, medians shrunk so pages fit a scenario window.
	params := browse.Alexa2012()
	params.Pages = w.Pages * w.Browsers
	if params.Pages < 1 {
		params.Pages = 1
	}
	params.HTMLMedian = 2048
	params.HTMLSigma = 0.4
	params.AssetMedian = 512
	params.AssetSigma = 0.4
	params.AssetsMin, params.AssetsMax = 2, 4
	if t.EpochRounds > 0 {
		// Slots rotate at epoch boundaries, so a frame split across
		// payloads can straddle a slot reassignment and desync. Keep
		// every resource inside one single-payload frame: frame header
		// (9B) + data + a trailing Close frame must fit the open slot.
		params.HTMLMedian = 128
		params.AssetMedian = 64
		params.AssetsMin, params.AssetsMax = 1, 2
	}
	corpus := browse.GenerateCorpus(params)
	if t.EpochRounds > 0 {
		openLen := t.OpenLen
		if openLen <= 0 {
			openLen = 256
		}
		max := openLen - 32
		for i := range corpus {
			if corpus[i].HTMLSize > max {
				corpus[i].HTMLSize = max
			}
			for j := range corpus[i].Assets {
				if corpus[i].Assets[j].Size > max {
					corpus[i].Assets[j].Size = max
				}
			}
		}
	}

	exitNode := dep.clients[len(dep.clients)-1]
	exit := newSlotPeer(ctx, exitNode)
	x := socks.NewExit(exit.send)
	go exit.pump(func(fs []socks.Frame) { x.Deliver(fs) })

	var pages browse.Stats
	var pagesMu sync.Mutex
	var fetchErr error
	var wg sync.WaitGroup
	for b := 0; b < w.Browsers; b++ {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := newBrowser(ctx, dep.clients[b], uint32(b+1), origin.Addr().String())
			for p := 0; p < w.Pages; p++ {
				page := corpus[(b*w.Pages+p)%len(corpus)]
				d, err := br.fetchPage(page)
				if err != nil {
					pagesMu.Lock()
					if fetchErr == nil && ctx.Err() == nil {
						fetchErr = fmt.Errorf("cluster: browser %d page %q: %w", b, page.Name, err)
					}
					pagesMu.Unlock()
					return
				}
				pagesMu.Lock()
				pages.Add(d)
				pagesMu.Unlock()
			}
		}()
	}
	wg.Wait()

	pagesMu.Lock()
	defer pagesMu.Unlock()
	ws.add("browse-pages-fetched", float64(len(pages.Times)), "pages")
	if len(pages.Times) > 0 {
		ws.add("browse-page-p50", float64(pages.Percentile(50).Nanoseconds()), "ns")
		ws.add("browse-page-p99", float64(pages.Percentile(99).Nanoseconds()), "ns")
	}
	if fetchErr != nil {
		return fetchErr
	}
	if len(pages.Times) == 0 {
		return fmt.Errorf("cluster: no page fetched inside the window")
	}
	return nil
}

// serveOrigin answers "GET <n>\n" with n bytes and closes.
func serveOrigin(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			line, err := bufio.NewReader(c).ReadString('\n')
			if err != nil {
				return
			}
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "GET ")))
			if err != nil || n <= 0 {
				return
			}
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte('a' + i%26)
			}
			for n > 0 {
				chunk := len(buf)
				if n < chunk {
					chunk = n
				}
				if _, err := c.Write(buf[:chunk]); err != nil {
					return
				}
				n -= chunk
			}
		}(conn)
	}
}

// slotPeer adapts one client session to the socks package's byte-stream
// world: send queues into the anonymous channel, pump reassembles
// frames from every *other* slot (payloads may split frames across
// rounds, so each slot keeps its own remainder buffer).
type slotPeer struct {
	ctx  context.Context
	node *dissent.Session
}

func newSlotPeer(ctx context.Context, node *dissent.Session) *slotPeer {
	return &slotPeer{ctx: ctx, node: node}
}

func (p *slotPeer) send(data []byte) {
	p.node.Send(p.ctx, data)
}

// pump drains the session's anonymous channel, decoding frames from every
// slot but its own and handing them to deliver.
func (p *slotPeer) pump(deliver func([]socks.Frame)) {
	rests := make(map[int][]byte)
	for {
		select {
		case <-p.ctx.Done():
			return
		case d, ok := <-p.node.Messages():
			if !ok {
				return
			}
			if len(d.Data) == 0 || d.Slot == p.node.Slot() {
				continue
			}
			buf := append(rests[d.Slot], d.Data...)
			frames, rest, err := socks.DecodeFrames(buf)
			if err != nil {
				// Desynced stream (e.g. a slot reassigned mid-frame at an
				// epoch boundary): drop the remainder and resync.
				delete(rests, d.Slot)
				continue
			}
			rests[d.Slot] = rest
			if len(frames) > 0 {
				deliver(frames)
			}
		}
	}
}

// clusterBrowser fetches pages flow-by-flow through the channel.
type clusterBrowser struct {
	peer   *slotPeer
	origin string
	nextID uint32

	mu    sync.Mutex
	flows map[uint32]chan socks.Frame
}

func newBrowser(ctx context.Context, node *dissent.Session, idRange uint32, origin string) *clusterBrowser {
	br := &clusterBrowser{
		peer:   newSlotPeer(ctx, node),
		origin: origin,
		nextID: idRange << 20,
		flows:  make(map[uint32]chan socks.Frame),
	}
	go br.peer.pump(br.deliver)
	return br
}

// deliver routes exit-response frames to the waiting fetch; frames for
// other browsers' flows (different ID ranges) fall through harmlessly.
func (br *clusterBrowser) deliver(frames []socks.Frame) {
	for _, f := range frames {
		br.mu.Lock()
		ch := br.flows[f.FlowID]
		br.mu.Unlock()
		if ch == nil {
			continue
		}
		select {
		case ch <- f:
		default:
		}
	}
}

// fetch tunnels one "GET <n>" resource through a fresh flow and waits
// for n response bytes (or the exit's close).
func (br *clusterBrowser) fetch(n int) error {
	br.mu.Lock()
	br.nextID++
	id := br.nextID
	ch := make(chan socks.Frame, 256)
	br.flows[id] = ch
	br.mu.Unlock()
	defer func() {
		br.mu.Lock()
		delete(br.flows, id)
		br.mu.Unlock()
	}()

	// Open + request ride one queued payload; the stream decoder at the
	// exit splits them back apart.
	req := append(
		socks.EncodeFrame(socks.Frame{FlowID: id, Kind: socks.FrameOpen, Data: []byte(br.origin)}),
		socks.EncodeFrame(socks.Frame{FlowID: id, Kind: socks.FrameData, Data: []byte(fmt.Sprintf("GET %d\n", n))})...,
	)
	br.peer.send(req)

	got := 0
	for {
		select {
		case <-br.peer.ctx.Done():
			return br.peer.ctx.Err()
		case f := <-ch:
			switch f.Kind {
			case socks.FrameData:
				got += len(f.Data)
				if got >= n {
					// Tell the exit to drop the flow; the origin closes
					// its side after the last byte anyway.
					br.peer.send(socks.EncodeFrame(socks.Frame{FlowID: id, Kind: socks.FrameClose}))
					return nil
				}
			case socks.FrameClose:
				if got >= n {
					return nil
				}
				return fmt.Errorf("flow closed after %d/%d bytes", got, n)
			}
		}
	}
}

// fetchPage downloads a corpus page: the HTML document, then each
// asset, sequentially — the paper's per-page download time.
func (br *clusterBrowser) fetchPage(page browse.Page) (time.Duration, error) {
	start := time.Now()
	if err := br.fetch(page.HTMLSize); err != nil {
		return 0, err
	}
	for _, a := range page.Assets {
		if err := br.fetch(a.Size); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

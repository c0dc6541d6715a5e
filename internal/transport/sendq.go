package transport

// Per-peer send queues: the write half of the wire saturation work.
//
// Before this file existed, every derived batch crossing node boundaries
// paid one frame write plus one bufio flush — one syscall per batch per
// tick — and a peer that accepted the TCP connection but stopped reading
// could wedge the sender forever (no deadline anywhere on the write
// path). The outbox drain now *encodes* instead of *sending*: each frame
// is serialised into a pooled buffer and appended to the destination
// peer's bounded queue, and once the whole tick has drained, flushPeers
// writes each queue with a single vectored write (net.Buffers → writev)
// under one write deadline. An overloaded tick costs one syscall per
// peer, not one per batch.
//
// Back-pressure is explicit and bounded: a queue holds at most
// maxQueueFrames frames / maxQueueBytes bytes, and overflow drops the
// batch with its tuples and SIC mass accounted in the node's dropped
// counters — pre-credited SIC mass must never vanish silently, and a
// stalled peer must never grow unbounded memory on its senders.

import "net"

const (
	// maxWireScratch caps retained write- and read-side scratch buffers.
	// One pathological batch must not pin its high-water mark on every
	// frame reader and free list forever: oversized buffers are used
	// once and dropped back to the allocator.
	maxWireScratch = 64 << 10

	// maxQueueFrames / maxQueueBytes bound one peer's pending frames.
	// Hit either and the newest frame is dropped (with drop accounting)
	// rather than queued: a wedged peer sheds load at its senders
	// instead of accumulating it.
	maxQueueFrames = 512
	maxQueueBytes  = 8 << 20

	// maxFreeBufs bounds the write-buffer free list so an overload burst
	// does not become a permanent high-water mark. It must cover a full
	// overloaded tick's frames in flight or steady-state sends fall off
	// the free list and allocate. Measured per host on the benchmark
	// (2 vCPUs, go1.24.0, 10 s runs), the most frames one tick queued was
	// 5 on net_overload_24x48 and 181 (120 batch + 61 control) on
	// net_wide_8x480, and the list peaked at the same counts. Only the
	// catch-up tick after a 2 s stall injected into a net_wide_8x480
	// host's loop reached the bound: it queued 1,085 frames, and 61
	// buffers went back to the allocator. Worst case the list pins
	// maxFreeBufs x maxWireScratch = 64 MB; typical frames are a few KB.
	maxFreeBufs = 1024
)

// bufPool is a free list of write-side frame buffers. Steady-state sends
// draw encode scratch here and return it after the flush, so the encode →
// queue → vectored-write pipeline touches the allocator only while
// growing toward its working-set size. Only the host loop uses it.
type bufPool struct {
	free [][]byte
}

// get pops a buffer (nil when the list is empty — append grows it).
func (p *bufPool) get() []byte {
	k := len(p.free)
	if k == 0 {
		return nil
	}
	b := p.free[k-1]
	p.free[k-1] = nil
	p.free = p.free[:k-1]
	return b
}

// put returns a buffer to the free list. Oversized buffers (an
// exceptional batch) and overflow beyond maxFreeBufs are dropped so the
// list's footprint stays bounded by maxFreeBufs×maxWireScratch.
func (p *bufPool) put(b []byte) {
	if cap(b) == 0 || cap(b) > maxWireScratch || len(p.free) >= maxFreeBufs {
		return
	}
	p.free = append(p.free, b[:0])
}

// qframe is one encoded, ready-to-write frame plus the drop-accounting
// facts needed if it never reaches the peer: batch frames carry their
// tuple count and pre-credited SIC mass, control frames carry zeros.
type qframe struct {
	buf    []byte
	tuples int
	sic    float64
}

// peerQueue coalesces one tick's frames bound for a single destination.
// The outbox drain (and the control-frame enqueue) push encoded frames;
// the tick-end flush writes the whole queue back-to-back with one
// vectored write and truncates it in place. The host loop is the only
// goroutine that pushes or flushes, so a queue is empty between steps.
type peerQueue struct {
	frames []qframe
	bytes  int
	// vec is the flush-time net.Buffers scratch, rebuilt from the queued
	// frames on every flush; view is the header copy handed to WriteTo,
	// which consumes and truncates whatever it is given — vec keeps the
	// backing array's capacity across flushes.
	vec  net.Buffers
	view net.Buffers
	// flushes counts vectored writes issued for this queue — the
	// coalescing tests read it.
	flushes int
}

// push appends an encoded frame, refusing (false) when the queue is at
// its frame or byte bound. The caller keeps ownership of buf on refusal.
func (q *peerQueue) push(buf []byte, tuples int, sic float64) bool {
	if len(q.frames) >= maxQueueFrames || q.bytes+len(buf) > maxQueueBytes {
		return false
	}
	q.frames = append(q.frames, qframe{buf: buf, tuples: tuples, sic: sic})
	q.bytes += len(buf)
	return true
}

// buffers rebuilds the reusable vectored-write view over the queued
// frames. The result aliases q.view, which WriteTo consumes and
// truncates, so a retry must call buffers again; q.vec retains the
// backing array.
func (q *peerQueue) buffers() *net.Buffers {
	q.vec = q.vec[:0]
	for i := range q.frames {
		q.vec = append(q.vec, q.frames[i].buf)
	}
	q.view = q.vec
	return &q.view
}

// reset returns the queued frames' encode buffers to p and empties the
// queue, keeping its backing array for the next tick.
func (q *peerQueue) reset(p *bufPool) {
	for i := range q.frames {
		p.put(q.frames[i].buf)
		q.frames[i].buf = nil
	}
	q.frames = q.frames[:0]
	q.bytes = 0
}

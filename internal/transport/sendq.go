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

import (
	"net"
	"sync"
	"sync/atomic"
)

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
	// overloaded tick's frames in flight (the 24-peer/48-query benchmark
	// shape queues ~400 frames per tick) or steady-state sends fall off
	// the free list and allocate; worst case the list pins
	// maxFreeBufs x maxWireScratch = 64 MB, typical frames are a few KB.
	maxFreeBufs = 1024
)

// bufPool is a free list of write-side frame buffers. Steady-state sends
// draw encode scratch here and return it after the flush, so the encode →
// queue → vectored-write pipeline touches the allocator only while
// growing toward its working-set size.
type bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// get pops a buffer (nil when the list is empty — append grows it).
func (p *bufPool) get() []byte {
	p.mu.Lock()
	var b []byte
	if k := len(p.free); k > 0 {
		b = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	return b
}

// put returns a buffer to the free list. Oversized buffers (an
// exceptional batch) and overflow beyond maxFreeBufs are dropped so the
// list's footprint stays bounded by maxFreeBufs×maxWireScratch.
func (p *bufPool) put(b []byte) {
	if cap(b) == 0 || cap(b) > maxWireScratch {
		return
	}
	p.mu.Lock()
	if len(p.free) < maxFreeBufs {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
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
// RouteDownstream (and the control-frame enqueue) push encoded frames;
// the tick-end flush takes the whole queue and writes it back-to-back
// with one vectored write. The queue double-buffers its frame slice so
// steady-state ticks alternate two backing arrays without reallocating.
type peerQueue struct {
	mu     sync.Mutex
	frames []qframe
	bytes  int
	spare  []qframe
	// vec is the flush-time net.Buffers scratch, rebuilt from the taken
	// frames on every flush; view is the header copy handed to WriteTo,
	// which consumes and truncates whatever it is given — vec keeps the
	// backing array's capacity across flushes.
	vec  net.Buffers
	view net.Buffers
	// flushes counts vectored writes issued for this queue — the
	// coalescing tests read it.
	flushes atomic.Int64
}

// push appends an encoded frame, refusing (false) when the queue is at
// its frame or byte bound. The caller keeps ownership of buf on refusal.
func (q *peerQueue) push(buf []byte, tuples int, sic float64) bool {
	q.mu.Lock()
	if len(q.frames) >= maxQueueFrames || q.bytes+len(buf) > maxQueueBytes {
		q.mu.Unlock()
		return false
	}
	q.frames = append(q.frames, qframe{buf: buf, tuples: tuples, sic: sic})
	q.bytes += len(buf)
	q.mu.Unlock()
	return true
}

// take hands every queued frame to the flusher and installs the spare
// slice for the next tick's pushes. Returns nil when nothing is queued.
// Callers that receive frames must recycle the buffers and hand the
// slice back via giveBack.
func (q *peerQueue) take() []qframe {
	q.mu.Lock()
	if len(q.frames) == 0 {
		q.mu.Unlock()
		return nil
	}
	frames := q.frames
	q.frames = q.spare[:0:cap(q.spare)]
	q.spare = nil
	q.bytes = 0
	q.mu.Unlock()
	return frames
}

// giveBack returns a drained frames slice for reuse as the next spare.
func (q *peerQueue) giveBack(frames []qframe) {
	for i := range frames {
		frames[i].buf = nil
	}
	q.mu.Lock()
	if q.spare == nil {
		q.spare = frames[:0:cap(frames)]
	}
	q.mu.Unlock()
}

// buffers rebuilds the reusable vectored-write view over taken frames.
// The result aliases q.view, which WriteTo consumes and truncates, so a
// retry must call buffers again; q.vec retains the backing array.
func (q *peerQueue) buffers(frames []qframe) *net.Buffers {
	q.vec = q.vec[:0]
	for i := range frames {
		q.vec = append(q.vec, frames[i].buf)
	}
	q.view = q.vec
	return &q.view
}

// pending reports the queued frame count (tests and back-pressure
// diagnostics).
func (q *peerQueue) pending() int {
	q.mu.Lock()
	n := len(q.frames)
	q.mu.Unlock()
	return n
}

// sortFlush orders the parallel addr/queue flush scratch by address.
// Insertion sort: peer counts are small, flush order must be
// deterministic, and the steady-state path must not box a
// sort.Interface per tick.
func sortFlush(addrs []string, qs []*peerQueue) {
	for i := 1; i < len(addrs); i++ {
		a, q := addrs[i], qs[i]
		j := i - 1
		for j >= 0 && addrs[j] > a {
			addrs[j+1], qs[j+1] = addrs[j], qs[j]
			j--
		}
		addrs[j+1], qs[j+1] = a, q
	}
}

package serve

import (
	"fmt"
	"sync"

	"repro/internal/memtrack"
	"repro/internal/obs"
)

// framePool is the server's free list of operand frames, keyed by exact
// word count. Every in-core request draws its A, B and C frames here, the
// body is read straight into them, and they come back once the response
// has been written — or, when the request's deadline expired first, once
// its abandoned batch call has finished, since that call may still write C.
//
// Frames live outside the Go heap where the platform allows (mapFrame):
// the garbage collector sets its heap goal at twice the live heap, so the
// same frames kept on the heap would count as live and raise that goal
// for every other allocation. Drawn frames are handed out with whatever
// the last request left in them (NaN under the poison build tag): A and B
// are overwritten by the body, C too when β ≠ 0, and at β = 0 the engine
// overwrites C without reading it, as BLAS allows.
//
// A frame is unmapped as soon as it is dropped, even a C frame whose
// response write failed: net/http is done with the bytes of a Write when
// the call returns, with or without an error. Its HTTP/2 server encodes
// every DATA frame on the connection's own goroutine, which stops touching
// a stream's data once the stream is closed, and the handler's Write sees
// the close only after that (go.dev/issue/58446).
//
// Reuse pays off only for traffic that repeats exact shapes, so retention
// is bounded by the traffic, with nothing configured:
//
//   - The pool never holds more than twice the live peak, the most frame
//     words ever live at once; a put that would go over unmaps the least
//     recently put idle frames first. A frame is mapped only when none of
//     its size is idle, so a size holds at most its own high-water of
//     frames in use, and since an idle frame serves only its own size, the
//     factor two leaves room for sizes whose high-waters fall at different
//     times. However many shapes the traffic brings, the pool stays within
//     twice the live peak, a figure set by how many requests are in flight
//     at once, not by how many shapes there are.
//   - A size none of whose frames has ever been reused is a one-off: its
//     idle frames are unmapped at the end of the first epoch in which it
//     was not drawn, an epoch ending once the pool has drawn as many words
//     as it holds. A one-off request, large or small, thus stops pinning
//     memory within two turnovers of what the pool holds; the live peak it
//     set stays, as a bound rather than as memory held.
type framePool struct {
	mu    sync.Mutex
	sizes map[int]*frameSize
	// oldest and newest end the list of every idle frame in the order it
	// was put; spare keeps unlinked nodes for reuse.
	oldest, newest *idleFrame
	spare          []*idleFrame
	// held counts the frames mapped, live or idle; peak is the most words
	// ever live at once.
	held                       int64
	liveWords, idleWords, peak int64
	// epoch numbers the epochs; drawn counts the words drawn in this one.
	epoch, drawn int64
	closed       bool

	gLive, gIdle  *obs.Gauge
	fresh, reused *obs.Counter
}

// frameSize holds one word count's idle frames, most recently put last,
// and the number of its frames handed out.
type frameSize struct {
	idle []*idleFrame
	live int64
	// epoch is the pool's epoch at the size's latest draw; reused tells
	// whether a draw has ever found one of its frames idle.
	epoch  int64
	reused bool
}

// idleFrame is an idle frame's node in the pool's put order.
type idleFrame struct {
	f          []float64
	prev, next *idleFrame
}

func newFramePool(reg *obs.Registry) *framePool {
	return &framePool{
		sizes:  make(map[int]*frameSize),
		gLive:  reg.Gauge("serve.frames.live_words"),
		gIdle:  reg.Gauge("serve.frames.idle_words"),
		fresh:  reg.Counter("serve.frames.fresh"),
		reused: reg.Counter("serve.frames.reused"),
	}
}

// frameStats is the frame accounting /v1/stats reports. Frames are the
// requests' operands, not Strassen workspace, so they are kept apart from
// the collector's memory and arena figures.
type frameStats struct {
	LiveWords int64 `json:"liveWords"`
	IdleWords int64 `json:"idleWords"`
	Fresh     int64 `json:"fresh"`
	Reused    int64 `json:"reused"`
}

func (p *framePool) stats() frameStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return frameStats{p.liveWords, p.idleWords, p.fresh.Value(), p.reused.Value()}
}

// get hands out a frame of exactly words float64s with unspecified
// contents, the most recently put one of its size if any is idle. The
// caller owns it until put.
func (p *framePool) get(words int) ([]float64, error) {
	p.mu.Lock()
	s := p.sizes[words]
	if s == nil {
		s = new(frameSize)
		p.sizes[words] = s
	}
	// Counting the frame live before it exists keeps the size's entry in
	// place while the frame is mapped outside the lock.
	s.live++
	s.epoch = p.epoch
	p.liveWords += int64(words)
	p.peak = max(p.peak, p.liveWords)
	var f []float64
	if n := len(s.idle); n > 0 {
		f = p.unlink(s.idle[n-1])
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.reused = true
		p.idleWords -= int64(words)
	} else {
		p.held++
	}
	var expired [][]float64
	if p.drawn += int64(words); p.drawn >= p.liveWords+p.idleWords {
		p.epoch++
		p.drawn = 0
		expired = p.expire()
	}
	p.publish()
	p.mu.Unlock()
	unmapFrames(expired)

	if f != nil {
		p.reused.Add(1)
		return memtrack.Poison(f), nil
	}
	f, err := mapFrame(words)
	if err != nil {
		p.mu.Lock()
		s.live--
		p.liveWords -= int64(words)
		p.held--
		p.forget(words, s)
		p.publish()
		p.mu.Unlock()
		return nil, fmt.Errorf("serve: mapping a %d-word operand frame: %w", words, err)
	}
	p.fresh.Add(1)
	return memtrack.Poison(f), nil
}

// put takes frames back; nil entries are skipped. A frame must not be
// touched after it is put, and put twice it would be handed out twice,
// which the live count catches.
func (p *framePool) put(frames ...[]float64) {
	var drop [][]float64
	p.mu.Lock()
	for _, f := range frames {
		if f == nil {
			continue
		}
		s := p.sizes[len(f)]
		if s == nil || s.live == 0 {
			p.mu.Unlock()
			panic("serve: operand frame returned twice")
		}
		s.live--
		p.liveWords -= int64(len(f))
		if p.closed {
			drop = append(drop, f)
			p.held--
			p.forget(len(f), s)
			continue
		}
		s.idle = append(s.idle, p.link(f))
		p.idleWords += int64(len(f))
	}
	for p.liveWords+p.idleWords > 2*p.peak {
		drop = append(drop, p.dropOldest())
	}
	p.publish()
	p.mu.Unlock()
	unmapFrames(drop)
}

// link appends f to the put order and returns its node. The caller holds
// p.mu.
func (p *framePool) link(f []float64) *idleFrame {
	var n *idleFrame
	if k := len(p.spare); k > 0 {
		n, p.spare = p.spare[k-1], p.spare[:k-1]
	} else {
		n = new(idleFrame)
	}
	n.f, n.prev = f, p.newest
	if p.newest != nil {
		p.newest.next = n
	} else {
		p.oldest = n
	}
	p.newest = n
	return n
}

// unlink removes n from the put order, keeps it for reuse and returns its
// frame. The caller holds p.mu.
func (p *framePool) unlink(n *idleFrame) []float64 {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.oldest = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.newest = n.prev
	}
	f := n.f
	*n = idleFrame{}
	p.spare = append(p.spare, n)
	return f
}

// dropOldest takes the least recently put idle frame off its size's list
// and the pool's books and returns it for unmapping. Each size's list is
// in put order, so that frame is its first entry. The caller holds p.mu.
func (p *framePool) dropOldest() []float64 {
	words := len(p.oldest.f)
	s := p.sizes[words]
	f := p.unlink(s.idle[0])
	s.idle[0] = nil
	s.idle = s.idle[1:]
	p.idleWords -= int64(words)
	p.held--
	p.forget(words, s)
	return f
}

// expire takes off the books, at the end of an epoch, the idle frames of
// every one-off size not drawn during it, and returns them for unmapping
// outside the lock. The caller holds p.mu.
func (p *framePool) expire() [][]float64 {
	var drop [][]float64
	for words, s := range p.sizes {
		if s.reused || s.epoch >= p.epoch-1 {
			continue
		}
		for i, n := range s.idle {
			drop = append(drop, p.unlink(n))
			s.idle[i] = nil
		}
		p.held -= int64(len(s.idle))
		p.idleWords -= int64(words * len(s.idle))
		s.idle = s.idle[:0]
		p.forget(words, s)
	}
	return drop
}

// forget deletes a size's entry once it has no frame live or idle, so
// the map holds only sizes the pool has frames of. The caller holds p.mu.
func (p *framePool) forget(words int, s *frameSize) {
	if s.live == 0 && len(s.idle) == 0 {
		delete(p.sizes, words)
	}
}

// close unmaps every idle frame; frames still live are unmapped when they
// come back.
func (p *framePool) close() {
	var drop [][]float64
	p.mu.Lock()
	p.closed = true
	for p.oldest != nil {
		drop = append(drop, p.dropOldest())
	}
	p.spare = nil
	p.publish()
	p.mu.Unlock()
	unmapFrames(drop)
}

// publish copies the word counts to their gauges. The caller holds p.mu,
// so the gauges move in the order the counts do.
func (p *framePool) publish() {
	p.gLive.Set(p.liveWords)
	p.gIdle.Set(p.idleWords)
}

func unmapFrames(frames [][]float64) {
	for _, f := range frames {
		unmapFrame(f)
	}
}

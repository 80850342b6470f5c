package machine

import (
	"fmt"
	"sync"
)

// RedZoneSize is the System V x86-64 red zone: 128 bytes below RSP that
// leaf functions may use without adjusting the stack pointer. Code compiled
// for user space (like the legacy libraries a hybridized runtime drags
// along) assumes nothing asynchronously writes there — an assumption
// kernel-mode interrupt delivery breaks unless the kernel switches stacks
// (IST) or pulls RSP down first (section 4.4).
const RedZoneSize = 128

// frameBytes is the size of the state an interrupt pushes (SS, RSP,
// RFLAGS, CS, RIP, error code — 6 words).
const frameBytes = 48

// pageSize is the granule a Stack allocates its bytes in.
const pageSize = 4096

// Stack models one execution stack as real bytes, so red-zone clobbering
// by interrupt frames is observable rather than hypothetical. The bytes
// live in 4 KiB pages allocated on first write: the model only ever
// touches the bytes near RSP, so a stack's heap cost tracks the pages it
// used, not its nominal size, and an untouched byte reads as 0.
type Stack struct {
	mu    sync.Mutex
	pages []*[pageSize]byte // nil until the page is first written
	size  int
	sp    int // offset of the stack pointer within the stack; grows downward
}

// NewStack makes a stack of the given nominal size with RSP at the top.
func NewStack(size int) *Stack {
	if size < frameBytes+RedZoneSize {
		size = frameBytes + RedZoneSize
	}
	return &Stack{pages: make([]*[pageSize]byte, (size+pageSize-1)/pageSize), size: size, sp: size}
}

// page returns the page holding offset i, allocating it on first use.
func (s *Stack) page(i int) *[pageSize]byte {
	p := s.pages[i/pageSize]
	if p == nil {
		p = new([pageSize]byte)
		s.pages[i/pageSize] = p
	}
	return p
}

// Reset rebases RSP to the top and zeroes the touched pages, keeping them
// allocated — the deterministic stack recycle a warm-pool reuse performs,
// so a recycled context reads like a fresh NewStack of the same size and
// a warm claim allocates nothing.
func (s *Stack) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pages {
		if p != nil {
			clear(p[:])
		}
	}
	s.sp = s.size
}

// SP returns the current stack-pointer offset.
func (s *Stack) SP() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sp
}

// Size returns the stack's nominal size in bytes, touched or not (what a
// checkpoint image has to carry for it).
func (s *Stack) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// PullDown moves RSP down by n bytes and returns the new offset — the
// Nautilus syscall-stub entry move that protects the red zone when a
// hardware stack switch is unavailable (SYSCALL cannot use the IST).
func (s *Stack) PullDown(n int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sp-n < 0 {
		return 0, fmt.Errorf("machine: stack overflow pulling down %d bytes", n)
	}
	s.sp -= n
	return s.sp, nil
}

// Release moves RSP back up by n bytes (stub exit).
func (s *Stack) Release(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sp+n > s.size {
		return fmt.Errorf("machine: stack underflow releasing %d bytes", n)
	}
	s.sp += n
	return nil
}

// WriteRedZone stores b into the red zone at the given offset below RSP
// (0 <= off < RedZoneSize), the way a compiled leaf function would.
func (s *Stack) WriteRedZone(off int, b byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off >= RedZoneSize {
		return fmt.Errorf("machine: red zone offset %d out of range", off)
	}
	idx := s.sp - 1 - off
	if idx < 0 {
		return fmt.Errorf("machine: red zone write below stack")
	}
	s.page(idx)[idx%pageSize] = b
	return nil
}

// ReadRedZone loads the byte at the given offset below RSP.
func (s *Stack) ReadRedZone(off int) (byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off >= RedZoneSize {
		return 0, fmt.Errorf("machine: red zone offset %d out of range", off)
	}
	idx := s.sp - 1 - off
	if idx < 0 {
		return 0, fmt.Errorf("machine: red zone read below stack")
	}
	p := s.pages[idx/pageSize]
	if p == nil {
		return 0, nil
	}
	return p[idx%pageSize], nil
}

// PushFrame pushes an interrupt frame at the current RSP, overwriting
// whatever lies just below it — including a red zone, if this stack is the
// interrupted thread's own stack. The frame bytes are a recognizable
// pattern so tests can observe the clobbering.
func (s *Stack) PushFrame(f *InterruptFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := s.sp - frameBytes
	if lo < 0 {
		lo = 0
	}
	// A frame is smaller than a page, so it spans at most two.
	v := 0xCC ^ byte(f.Vector)
	for i := lo; i < s.sp; {
		off := i % pageSize
		seg := s.page(i)[off:min(pageSize, off+s.sp-i)]
		for j := range seg {
			seg[j] = v
		}
		i += len(seg)
	}
	s.sp = lo
}

// PopFrame unwinds the most recent interrupt frame (iretq).
func (s *Stack) PopFrame() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sp += frameBytes
	if s.sp > s.size {
		s.sp = s.size
	}
}

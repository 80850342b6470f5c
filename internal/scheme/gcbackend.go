package scheme

import (
	"fmt"

	"multiverse/internal/linuxabi"
)

// memBackend abstracts how the collector obtains, protects, and returns
// heap segments. The default backend speaks the legacy ABI
// (mmap/mprotect/munmap system calls, SIGSEGV write barriers). The
// AeroKernel backend — available once the runtime notices it is an HRT —
// uses kernel-mode page-table edits instead, the paper's predicted first
// incremental port (section 5).
type memBackend interface {
	mmap(in *Interp, length uint64) (uint64, error)
	munmap(in *Interp, addr, length uint64) bool
	protect(in *Interp, addr, length uint64, writable bool) bool
	name() string
}

// syscallBackend is the legacy path.
type syscallBackend struct{}

func (syscallBackend) name() string { return "syscalls" }

func (syscallBackend) mmap(in *Interp, length uint64) (uint64, error) {
	res := in.Sys(linuxabi.Call{
		Num: linuxabi.SysMmap,
		Args: [6]uint64{
			0, length,
			linuxabi.ProtRead | linuxabi.ProtWrite,
			linuxabi.MapPrivate | linuxabi.MapAnonymous,
		},
	})
	if !res.Ok() {
		return 0, fmt.Errorf("scheme: heap mmap: %v", res.Err)
	}
	return res.Ret, nil
}

func (syscallBackend) munmap(in *Interp, addr, length uint64) bool {
	return in.Sys(linuxabi.Call{Num: linuxabi.SysMunmap, Args: [6]uint64{addr, length}}).Ok()
}

func (syscallBackend) protect(in *Interp, addr, length uint64, writable bool) bool {
	prot := uint64(linuxabi.ProtRead)
	if writable {
		prot |= linuxabi.ProtWrite
	}
	return in.Sys(linuxabi.Call{Num: linuxabi.SysMprotect, Args: [6]uint64{addr, length, prot}}).Ok()
}

// AKMemory is the capability an HRT execution environment exposes for
// kernel-managed memory: direct AeroKernel calls plus registration of a
// kernel-level fault handler for the protection faults the runtime
// arranges on purpose (write barriers).
type AKMemory interface {
	AKCall(symbol string, args ...uint64) (uint64, error)
	RegisterAKMemFaultHandler(h func(addr uint64, write bool) bool)
}

// akBackend edits page tables in the AeroKernel: no event-channel
// crossings, no demand faults (frames are allocated eagerly at map time).
type akBackend struct {
	ak AKMemory
}

func (*akBackend) name() string { return "aerokernel" }

func (b *akBackend) mmap(in *Interp, length uint64) (uint64, error) {
	in.flushCompute()
	addr, err := b.ak.AKCall("nk_mmap", length)
	if err != nil {
		return 0, err
	}
	if addr == ^uint64(0) {
		return 0, fmt.Errorf("scheme: nk_mmap failed")
	}
	return addr, nil
}

func (b *akBackend) munmap(in *Interp, addr, length uint64) bool {
	in.flushCompute()
	ret, err := b.ak.AKCall("nk_munmap", addr, length)
	return err == nil && ret == 0
}

func (b *akBackend) protect(in *Interp, addr, length uint64, writable bool) bool {
	in.flushCompute()
	w := uint64(0)
	if writable {
		w = 1
	}
	ret, err := b.ak.AKCall("nk_mprotect", addr, length, w)
	return err == nil && ret == 0
}

// EnableAKMemory switches the collector's segment management to the
// AeroKernel: new segments come from nk_mmap, protection changes become
// direct PTE edits, and write-barrier faults are resolved by a
// kernel-level handler instead of forwarded SIGSEGVs. This is the
// incremental-porting step the hotspot report points at; it requires an
// HRT environment.
func (e *Engine) EnableAKMemory() error {
	akm, ok := e.in.os.(AKMemory)
	if !ok {
		return fmt.Errorf("scheme: environment offers no AeroKernel memory (not an HRT?)")
	}
	g := e.in.gc
	g.backend = &akBackend{ak: akm}
	akm.RegisterAKMemFaultHandler(g.akMemFault)
	// Move allocation to a kernel-managed nursery immediately.
	if _, err := g.newSegment(); err != nil {
		return err
	}
	return nil
}

// GCBackendName reports which backend currently provides new segments.
func (e *Engine) GCBackendName() string { return e.in.gc.backend.name() }

// akMemFault is the kernel-level write-barrier resolution for the
// AK-managed region (installed via RegisterAKMemFaultHandler): un-protect
// the segment by direct PTE edit and let the access retry.
func (g *GC) akMemFault(addr uint64, write bool) bool {
	s := g.segmentOf(addr)
	if s == nil || !s.protected {
		return false
	}
	if !s.backend.protect(g.in, s.base, segBytes, true) {
		return false
	}
	s.protected = false
	g.BarrierFaults++
	return true
}

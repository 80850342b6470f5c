package core

import (
	"testing"

	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
)

// TestHRTSyscallAllocationFree pins the HRT system-call path's metric
// handles: once a call number has been seen, a forwarded call with the
// router off, a tier-0 getpid, and a close(999) the router forwards over
// the event channel allocate nothing per call. Resolving the per-group
// SLO histogram and the router's counters by name on every call would
// build each name on the heap, under the registry-wide lock.
func TestHRTSyscallAllocationFree(t *testing.T) {
	// A one-cycle promotion window keeps the routed close on the event
	// channel.
	routed := Options{AppName: "alloc", Router: true, RouterPolicy: hvm.RouterPolicy{PromoteWindow: 1}}
	for _, tc := range []struct {
		name string
		opts Options
		call linuxabi.Call
	}{
		{"unrouted-close", Options{AppName: "alloc"}, badClose},
		{"routed-getpid", routed, linuxabi.Call{Num: linuxabi.SysGetpid}},
		{"routed-close", routed, badClose},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildTestSystem(t, tc.opts)
			var allocs float64
			if _, err := sys.HRTInvokeFunc(func(env Env) uint64 {
				for i := 0; i < 4; i++ {
					env.Syscall(tc.call)
				}
				allocs = testing.AllocsPerRun(200, func() { env.Syscall(tc.call) })
				return 0
			}); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%s allocates %.0f per call, want 0", tc.name, allocs)
			}
		})
	}
}

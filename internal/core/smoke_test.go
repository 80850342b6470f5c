package core

import (
	"testing"

	"multiverse/internal/linuxabi"
)

// buildTestSystem assembles a hybrid system with a fat binary, ready for
// InitRuntime.
func buildTestSystem(t testing.TB, opts Options) *System {
	t.Helper()
	fat, err := Build(BuildInput{
		App:        NewAppImage("smoke"),
		AeroKernel: NewAeroKernelImage(),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opts.Hybrid = true
	sys, err := NewSystem(fat, opts)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.InitRuntime(); err != nil {
		t.Fatalf("InitRuntime: %v", err)
	}
	return sys
}

// TestSmokeIncremental runs an unmodified "application" through the
// Incremental model end to end: mmap a buffer in the HRT, touch it (page
// faults forward to the ROS), issue file system calls, and exit.
func TestSmokeIncremental(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "smoke"})
	if err := sys.Kernel.FS().MkdirAll("/etc"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := sys.Kernel.FS().WriteFile("/etc/motd", []byte("hello hybrid world")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	code, err := sys.RunMain(func(env Env) uint64 {
		if env.World() != WorldHRT {
			t.Errorf("World() = %v, want WorldHRT", env.World())
		}
		// getpid through the forwarded syscall path.
		res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
		if !res.Ok() {
			t.Errorf("getpid: %v", res.Err)
		}
		if int(res.Ret) != sys.Proc.Pid() {
			t.Errorf("getpid = %d, want %d", res.Ret, sys.Proc.Pid())
		}

		// mmap + touch: the fault must forward to the ROS, which
		// demand-maps the page in the shared lower half.
		mres := env.Syscall(linuxabi.Call{
			Num:  linuxabi.SysMmap,
			Args: [6]uint64{0, 64 * 1024, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
		})
		if !mres.Ok() {
			t.Fatalf("mmap: %v", mres.Err)
		}
		for off := uint64(0); off < 64*1024; off += 4096 {
			if err := env.Touch(mres.Ret+off, true); err != nil {
				t.Fatalf("touch %#x: %v", mres.Ret+off, err)
			}
		}

		// open/read/close of a ROS file.
		ores := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/etc/motd", Args: [6]uint64{0, linuxabi.ORdonly}})
		if !ores.Ok() {
			t.Fatalf("open: %v", ores.Err)
		}
		rres := env.Syscall(linuxabi.Call{Num: linuxabi.SysRead, Args: [6]uint64{ores.Ret, 0, 64}})
		if !rres.Ok() {
			t.Fatalf("read: %v", rres.Err)
		}
		if string(rres.Data) != "hello hybrid world" {
			t.Errorf("read = %q", rres.Data)
		}
		cres := env.Syscall(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{ores.Ret}})
		if !cres.Ok() {
			t.Fatalf("close: %v", cres.Err)
		}
		return 42
	})
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if code != 42 {
		t.Errorf("exit code = %d, want 42", code)
	}

	// The package ran as a kernel: faults and syscalls crossed the
	// event channel.
	if sys.AK.ForwardedSyscalls() == 0 {
		t.Error("no syscalls forwarded — did the HRT path run?")
	}
	if sys.AK.ForwardedFaults() == 0 {
		t.Error("no page faults forwarded")
	}
	if !sys.AK.Merged() {
		t.Error("address spaces not merged")
	}
	st := sys.Proc.Stats()
	if st.MinorFaults < 16 {
		t.Errorf("minor faults = %d, want >= 16", st.MinorFaults)
	}
	if exited, ec := sys.Proc.Exited(); !exited || ec != 42 {
		t.Errorf("process exit = (%v, %d), want (true, 42)", exited, ec)
	}
}

// TestSmokePthreadOverride checks the incremental model's parallelism:
// pthread_create maps to nk_thread_create through the default override,
// creating a second execution group; join semantics hold.
func TestSmokePthreadOverride(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "threads"})
	var childWorld World
	code, err := sys.RunMain(func(env Env) uint64 {
		join, err := env.PthreadCreate(func(child Env) {
			childWorld = child.World()
			res := child.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
			if !res.Ok() {
				t.Errorf("child getpid: %v", res.Err)
			}
		})
		if err != nil {
			t.Errorf("PthreadCreate: %v", err)
			return 1
		}
		join()
		return 7
	})
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if code != 7 {
		t.Errorf("exit code = %d, want 7", code)
	}
	if childWorld != WorldHRT {
		t.Errorf("child world = %v, want WorldHRT", childWorld)
	}
}

// TestSmokeNativeBaseline runs the same app natively (no HVM).
func TestSmokeNativeBaseline(t *testing.T) {
	sys, err := NewSystem(nil, Options{AppName: "native"})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	code, err := sys.RunMain(func(env Env) uint64 {
		if env.World() != WorldNative {
			t.Errorf("World() = %v", env.World())
		}
		res := env.Syscall(linuxabi.Call{
			Num:  linuxabi.SysMmap,
			Args: [6]uint64{0, 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
		})
		if !res.Ok() {
			t.Fatalf("mmap: %v", res.Err)
		}
		if err := env.Touch(res.Ret, true); err != nil {
			t.Fatalf("touch: %v", err)
		}
		return 0
	})
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if code != 0 {
		t.Errorf("code = %d", code)
	}
}

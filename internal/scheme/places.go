package scheme

// Places are the runtime's message-passing parallelism (Racket's places:
// "support has been added to Racket for parallelism via futures and
// places"). Each place is a fresh interpreter instance — its own heap,
// GC, and scheduler — running on a new OS thread. Under Multiverse that
// thread is created through the pthread_create override, so every place
// becomes its own execution group: a top-level HRT thread with its own
// ROS partner.
//
// Values cross place boundaries by serialization (written representation),
// as real places marshal messages.

// PlaceSpawner launches an isolated place evaluating src on a new thread
// and returns a wait function yielding the place's final value in written
// form. The host environment (which knows how to create threads) installs
// one with SetPlaceSpawner.
type PlaceSpawner func(src string) (wait func() (string, error), err error)

// SetPlaceSpawner wires place support into the engine.
func (e *Engine) SetPlaceSpawner(ps PlaceSpawner) {
	e.in.placeSpawner = ps
	installPlaceBuiltins(e.in)
}

// AKCaller is the optional capability an execution environment exposes
// when the runtime executes inside an HRT: direct AeroKernel calls. It is
// how a hybridized runtime starts the incremental -> accelerator
// transition without leaving Scheme.
type AKCaller interface {
	AKCall(symbol string, args ...uint64) (uint64, error)
}

type placeHandle struct {
	id   int64
	wait func() (string, error)
}

func installPlaceBuiltins(in *Interp) {
	if in.places == nil {
		in.places = make(map[int64]*placeHandle)
	}
	def := in.defineBuiltin

	// (place-spawn "source") -> handle
	def("place-spawn", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("place-spawn: want a source string")
		}
		if in.placeSpawner == nil {
			return nil, evalError("place-spawn: no place support in this environment")
		}
		in.flushCompute()
		wait, err := in.placeSpawner(string(a[0].ext.Str))
		if err != nil {
			return nil, evalError("place-spawn: %v", err)
		}
		in.nextPlace++
		h := &placeHandle{id: in.nextPlace, wait: wait}
		in.places[h.id] = h
		return in.NewInt(h.id), nil
	})

	// (place-wait handle) -> the place's final value (deserialized)
	def("place-wait", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KInt {
			return nil, evalError("place-wait: want a place handle")
		}
		h := in.places[a[0].Int]
		if h == nil {
			return nil, evalError("place-wait: unknown place %d", a[0].Int)
		}
		delete(in.places, a[0].Int)
		in.flushCompute()
		out, err := h.wait()
		if err != nil {
			return nil, evalError("place-wait: place failed: %v", err)
		}
		v, rerr := NewReader(in, out).Read()
		if rerr != nil || v == nil {
			// Not a readable datum (e.g. a procedure): hand it over as
			// a string.
			return in.NewString([]byte(out)), nil
		}
		return v, nil
	})
}

// installHRTBuiltins adds the capabilities that only exist when the
// environment is an HRT: direct AeroKernel calls. Called from NewInterp
// when the OS offers them.
func installHRTBuiltins(in *Interp, ak AKCaller) {
	in.defineBuiltin("aerokernel-call", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 1 || a[0].Kind != KString {
			return nil, evalError("aerokernel-call: want a symbol name string")
		}
		args := make([]uint64, 0, len(a)-1)
		for _, o := range a[1:] {
			if o.Kind != KInt {
				return nil, evalError("aerokernel-call: arguments must be integers")
			}
			args = append(args, uint64(o.Int))
		}
		in.flushCompute()
		ret, err := ak.AKCall(string(a[0].ext.Str), args...)
		if err != nil {
			return nil, evalError("aerokernel-call: %v", err)
		}
		return in.NewInt(int64(ret)), nil
	})
	in.defineBuiltin("running-as-hrt?", func(in *Interp, a []*Obj) (*Obj, error) { return True, nil })
}

// installUserBuiltinFallbacks defines the non-HRT variants so programs can
// probe portably.
func installUserBuiltinFallbacks(in *Interp) {
	in.defineBuiltin("running-as-hrt?", func(in *Interp, a []*Obj) (*Obj, error) { return False, nil })
}

package scheme

// evalTop analyzes a top-level form and runs it in the global frame.
func (in *Interp) evalTop(form *Obj) (*Obj, error) {
	return in.eval(in.analyze(form), in.global)
}

// eval runs n in env. It brackets exec with the frame-recycling sweep:
// frames this evaluation created (let frames, parameter frames) that did
// not escape into a closure go back on the free list when the evaluation
// finishes. The returned value cannot reference a released frame — only
// closures hold frames, and closure creation marks its whole environment
// chain escaped. Constants and variable references, which create no
// frame, run here directly.
func (in *Interp) eval(n *node, env *Frame) (*Obj, error) {
	switch n.op {
	case opConst:
		in.tick()
		return n.val, nil
	case opRef:
		in.tick()
		if v := n.read(env); v != nil && v.Kind != KClosure {
			return v, nil
		}
		return in.value(n, env)
	case opCall:
		// A builtin application creates no frame and makes no tail call,
		// so it runs here too: the same two reductions exec would count,
		// the call's and its operator's. Reading the operator twice is
		// harmless, as a read has no effect.
		fn := n.read(env)
		if fn == nil {
			fn = n.lookup(env)
		}
		if fn != nil && fn.Kind == KBuiltin {
			in.tick()
			in.tick()
			if fn.special != primNone && len(n.kids) <= maxPrimOperands {
				return in.applyPrim(fn, n.kids, env)
			}
			return in.applyBuiltin(fn, n.kids, env)
		}
	}
	base := len(in.owned)
	v, err := in.exec(n, env, base)
	if len(in.owned) > base {
		in.sweepOwned(base)
	}
	return v, err
}

// sweepOwned releases every owned frame above base. By the time it runs,
// those frames are off every live environment chain: callers' chains
// cannot reach callee-created frames (chains only link upward), and any
// frame captured by a closure was marked escaped, which releaseFrame
// respects.
func (in *Interp) sweepOwned(base int) {
	for i := base; i < len(in.owned); i++ {
		in.releaseFrame(in.owned[i])
		in.owned[i] = nil
	}
	in.owned = in.owned[:base]
}

// sweepTail runs at a tail-call transition into next: owned frames that
// are not on next's chain are already dead — recycling them here, rather
// than at eval exit, is what lets tail-recursive loops run in constant
// frame space instead of accumulating one dead frame per iteration.
func (in *Interp) sweepTail(base int, next *Frame) {
	owned := in.owned
	keep := base
	for i := base; i < len(owned); i++ {
		f := owned[i]
		if !f.escaped {
			onChain := false
			for c := next; c != nil; c = c.parent {
				if c == f {
					onChain = true
					break
				}
			}
			if onChain {
				owned[keep] = f
				keep++
				continue
			}
			in.releaseFrame(f)
		}
		// Escaped frames drop out of owned: they can never be recycled,
		// so tracking them further is pure overhead.
	}
	for i := keep; i < len(owned); i++ {
		owned[i] = nil
	}
	in.owned = owned[:keep]
}

// read is lookup's inline fast path: a global cell, or a binding in its
// guessed slot. nil sends the caller to lookup.
func (n *node) read(env *Frame) *Obj {
	if n.cell != nil {
		return n.cell.v
	}
	if fr, ok := n.binder(env); ok {
		return fr.slots[n.slot].val
	}
	return nil
}

// binder returns the frame a local reference resolved to, and whether
// the guessed slot there holds the name. When it does not, the binder
// has not run the define yet, or ran its defines in another order: the
// caller searches that frame and the frames above it.
func (n *node) binder(env *Frame) (*Frame, bool) {
	fr := env
	for d := n.depth; d > 0; d-- {
		fr = fr.parent
	}
	s := int(n.slot)
	return fr, s < fr.n && fr.slots[s].key == n.sym
}

// lookup reads a resolved reference's binding, nil if it is unbound.
func (n *node) lookup(env *Frame) *Obj {
	if n.cell != nil {
		return n.cell.v
	}
	fr, ok := n.binder(env)
	if ok {
		return fr.slots[n.slot].val
	}
	return fr.lookup(n.sym)
}

// assign stores v in a resolved reference's binding, reporting whether
// there was one.
func (n *node) assign(env *Frame, v *Obj) bool {
	if c := n.cell; c != nil {
		if c.v == nil {
			return false
		}
		c.v = v
		return true
	}
	fr, ok := n.binder(env)
	if ok {
		fr.slots[n.slot].val = v
		return true
	}
	return fr.set(n.sym, v)
}

// value reads a variable in value position. A closure referenced there
// can flow anywhere — returned, stored, passed — so its environment chain
// must survive the evaluation that built it. This is the one producer of
// closure values besides closure creation (which marks then): operator
// positions read through lookup and stay unmarked, which is what lets
// named-let loop frames recycle.
func (in *Interp) value(n *node, env *Frame) (*Obj, error) {
	v := n.lookup(env)
	if v == nil {
		return nil, evalError("unbound variable %s", n.sym.ext.Str)
	}
	if v.Kind == KClosure && v.ext.Env != nil {
		markEscaped(v.ext.Env)
	}
	return v, nil
}

// evalSeq runs all but the last of body for effect and returns the last,
// for the caller to run in tail position; nil for an empty body.
func (in *Interp) evalSeq(body []*node, env *Frame) (*node, error) {
	if len(body) == 0 {
		return nil, nil
	}
	last := len(body) - 1
	for _, e := range body[:last] {
		if _, err := in.eval(e, env); err != nil {
			return nil, err
		}
	}
	return body[last], nil
}

// exec is the evaluator loop, with proper tail calls: tail positions
// update n/env and loop rather than recursing, so iterative Scheme (named
// let, do loops, tail recursion) runs in constant Go stack — the
// tail-call elimination Racket guarantees. Each pass is one reduction.
// base is the caller's owned-frame watermark, used by tail-transition
// sweeps.
func (in *Interp) exec(n *node, env *Frame, base int) (*Obj, error) {
	for {
		in.tick()
		switch n.op {
		case opConst:
			return n.val, nil

		case opRef:
			return in.value(n, env)

		case opFail:
			for _, e := range n.kids {
				if _, err := in.eval(e, env); err != nil {
					return nil, err
				}
			}
			return nil, n.x.err

		case opIf:
			c, err := in.eval(n.kids[0], env)
			if err != nil {
				return nil, err
			}
			if Truthy(c) {
				n = n.kids[1]
			} else if len(n.kids) == 3 {
				n = n.kids[2]
			} else {
				return Unspecified, nil
			}

		case opDefine:
			v := Unspecified
			if len(n.kids) > 0 {
				var err error
				if v, err = in.eval(n.kids[0], env); err != nil {
					return nil, err
				}
			}
			in.bindDefined(n, env, v)
			return Unspecified, nil

		case opDefineProc:
			in.Cons(n.val.Car.Cdr, n.val.Cdr) // (formals body...)
			if n.x.err != nil {
				return nil, n.x.err
			}
			in.bindDefined(n, env, in.makeClosure(n.x.lam, env))
			return Unspecified, nil

		case opSet:
			v, err := in.eval(n.kids[0], env)
			if err != nil {
				return nil, err
			}
			if !n.assign(env, v) {
				return nil, evalError("set!: unbound variable %s", n.sym.ext.Str)
			}
			return Unspecified, nil

		case opLambda:
			return in.makeClosure(n.x.lam, env), nil

		case opBegin:
			tail, err := in.evalSeq(n.body, env)
			if err != nil {
				return nil, err
			}
			n = tail

		case opLet, opLetStar, opLetrec:
			le, err := in.bindLet(n, env)
			if err != nil {
				return nil, err
			}
			tail, err := in.evalSeq(n.body, le)
			if err != nil {
				return nil, err
			}
			if tail == nil {
				return Unspecified, nil
			}
			n, env = tail, le

		case opNamedLet:
			frame, err := in.enterLoop(n, env)
			if err != nil {
				return nil, err
			}
			tail, err := in.evalSeq(n.x.lam.code, frame)
			if err != nil {
				return nil, err
			}
			if tail == nil {
				return Unspecified, nil
			}
			n, env = tail, frame

		case opCond:
			tail, v, err := in.evalCond(n, env)
			if tail == nil {
				return v, err
			}
			n = tail

		case opCase:
			tail, err := in.evalCase(n, env)
			if err != nil {
				return nil, err
			}
			if tail == nil {
				return Unspecified, nil
			}
			n = tail

		case opAnd, opOr:
			last := len(n.body) - 1
			for _, e := range n.body[:last] {
				v, err := in.eval(e, env)
				if err != nil {
					return nil, err
				}
				if Truthy(v) != (n.op == opAnd) {
					return v, nil
				}
			}
			n = n.body[last]

		case opWhen, opUnless:
			c, err := in.eval(n.kids[0], env)
			if err != nil {
				return nil, err
			}
			if Truthy(c) != (n.op == opWhen) || len(n.body) == 0 {
				return Unspecified, nil
			}
			tail, err := in.evalSeq(n.body, env)
			if err != nil {
				return nil, err
			}
			n = tail

		case opDo:
			return in.evalDo(n, env)

		case opQuasi:
			return in.evalQuasi(n.x.q, env)

		case opCall, opCallExpr:
			// Operands ride the interpreter's operand stack: pushed here,
			// passed down as a sub-slice, and popped before leaving —
			// callees never retain the slice, so argument lists cost no
			// allocation. A variable operator is read inline — same
			// reduction, but without value-position escape marking, since
			// exec consumes fn at once and never retains it. Calling a
			// named-let loop therefore does not pin its frames.
			var fn *Obj
			operands := n.kids
			if n.op == opCall {
				in.tick()
				if fn = n.read(env); fn == nil {
					if fn = n.lookup(env); fn == nil {
						return nil, evalError("unbound variable %s", n.sym.ext.Str)
					}
				}
			} else {
				v, err := in.eval(operands[0], env)
				if err != nil {
					return nil, err
				}
				fn, operands = v, operands[1:]
			}
			if fn.Kind == KBuiltin {
				if fn.special != primNone && len(operands) <= maxPrimOperands {
					return in.applyPrim(fn, operands, env)
				}
				return in.applyBuiltin(fn, operands, env)
			}
			abase := len(in.argStack)
			if err := in.pushOperands(operands, env); err != nil {
				return nil, err
			}
			if fn.Kind != KClosure {
				in.argStack = in.argStack[:abase]
				return nil, evalError("not a procedure: %s", WriteString(fn))
			}
			frame, err := in.bindParams(fn, in.argStack[abase:])
			in.argStack = in.argStack[:abase]
			if err != nil {
				return nil, err
			}
			code := fn.ext.lam.code
			if len(code) == 0 {
				return Unspecified, nil
			}
			tail, err := in.evalSeq(code, frame)
			if err != nil {
				return nil, err
			}
			in.sweepTail(base, frame)
			n, env = tail, frame
		}
	}
}

// pushOperands evaluates operands in order onto the operand stack. On an
// error it pops what it pushed.
func (in *Interp) pushOperands(operands []*node, env *Frame) error {
	abase := len(in.argStack)
	for _, a := range operands {
		// Constants and variables are evaluated inline: the same
		// reduction eval would count, without the call.
		var v *Obj
		var err error
		switch a.op {
		case opConst:
			in.tick()
			v = a.val
		case opRef:
			in.tick()
			if v = a.read(env); v == nil || v.Kind == KClosure {
				v, err = in.value(a, env)
			}
		default:
			v, err = in.eval(a, env)
		}
		if err != nil {
			in.argStack = in.argStack[:abase]
			return err
		}
		in.argStack = append(in.argStack, v)
	}
	return nil
}

// applyBuiltin evaluates operands onto the operand stack and applies the
// builtin fn to them through its Fn.
func (in *Interp) applyBuiltin(fn *Obj, operands []*node, env *Frame) (*Obj, error) {
	abase := len(in.argStack)
	if err := in.pushOperands(operands, env); err != nil {
		return nil, err
	}
	v, err := fn.ext.Fn(in, in.argStack[abase:])
	in.argStack = in.argStack[:abase]
	return v, err
}

// bindDefined binds a define's value in the frame it runs in.
func (in *Interp) bindDefined(n *node, env *Frame, v *Obj) {
	if n.cell != nil {
		n.cell.v = v
	} else {
		env.Define(n.sym, v)
	}
}

// Apply invokes a procedure from Go (builtins like map/apply use it). Not
// a tail position.
func (in *Interp) Apply(fn *Obj, args []*Obj) (*Obj, error) {
	switch fn.Kind {
	case KBuiltin:
		in.tick()
		return fn.ext.Fn(in, args)
	case KClosure:
		base := len(in.owned)
		frame, err := in.bindParams(fn, args)
		if err != nil {
			in.sweepOwned(base)
			return nil, err
		}
		var out *Obj = Unspecified
		for _, e := range fn.ext.lam.code {
			v, err := in.eval(e, frame)
			if err != nil {
				in.sweepOwned(base)
				return nil, err
			}
			out = v
		}
		in.sweepOwned(base)
		return out, nil
	default:
		return nil, evalError("apply: not a procedure: %s", WriteString(fn))
	}
}

func (in *Interp) bindParams(fn *Obj, args []*Obj) (*Frame, error) {
	x := fn.ext.procExt
	lam := x.lam // the closure's Params and Rest, on one cache line
	frame := in.newFrame(x.Env)
	in.owned = append(in.owned, frame)
	if lam.rest == nil && len(args) != len(lam.params) {
		return nil, evalError("arity: want %d args, got %d", len(lam.params), len(args))
	}
	if lam.rest != nil && len(args) < len(lam.params) {
		return nil, evalError("arity: want at least %d args, got %d", len(lam.params), len(args))
	}
	if lam.direct {
		for i, p := range lam.params {
			frame.slots[i] = binding{p, args[i]}
		}
		frame.n = len(lam.params)
	} else {
		for i, p := range lam.params {
			frame.Define(p, args[i])
		}
	}
	if lam.rest != nil {
		frame.Define(lam.rest, in.List(args[len(lam.params):]...))
	}
	return frame, nil
}

// newProc attaches an empty closure side car to o, in one host
// allocation.
func newProc(o *Obj) *procExt {
	x := &struct {
		objExt
		procExt
	}{}
	x.objExt.procExt = &x.procExt
	o.ext = &x.objExt
	return &x.procExt
}

// makeClosure closes lam over env.
func (in *Interp) makeClosure(lam *lambda, env *Frame) *Obj {
	c := in.alloc(KClosure)
	x := newProc(c)
	x.Params, x.Rest, x.Body, x.Env, x.lam = lam.params, lam.rest, lam.body, env, lam
	markEscaped(env)
	return c
}

// bindLet makes the frame of a let, let* or letrec and binds its
// variables, returning the frame the body runs in.
func (in *Interp) bindLet(n *node, env *Frame) (*Frame, error) {
	switch n.op {
	case opLet:
		// Inits run in the outer frame, bindings land in the new one.
		frame := in.newFrame(env)
		in.owned = append(in.owned, frame)
		for i, init := range n.kids {
			v, err := in.eval(init, env)
			if err != nil {
				return nil, err
			}
			frame.Define(n.x.vars[i], v)
		}
		return frame, n.x.err
	case opLetStar:
		frame := env
		for i, init := range n.kids {
			frame = in.newFrame(frame)
			in.owned = append(in.owned, frame)
			v, err := in.eval(init, frame)
			if err != nil {
				return nil, err
			}
			frame.Define(n.x.vars[i], v)
		}
		if n.x.err != nil {
			return nil, n.x.err
		}
		if frame == env {
			frame = in.newFrame(env)
			in.owned = append(in.owned, frame)
		}
		return frame, nil
	default: // opLetrec
		frame := in.newFrame(env)
		in.owned = append(in.owned, frame)
		for _, v := range n.x.vars {
			frame.Define(v, Unspecified)
		}
		for i, init := range n.kids {
			v, err := in.eval(init, frame)
			if err != nil {
				return nil, err
			}
			frame.Define(n.x.vars[i], v)
		}
		return frame, nil
	}
}

// enterLoop starts a named let: it makes the loop closure, binds it in a
// frame of its own, and applies it to the inits, returning the frame the
// body runs in.
//
// The loop frame is owned and recyclable, not escaped: the loop closure
// is deliberately unmarked. It can only leak out of the loop by being
// referenced in value position (value marks then) or by being captured
// inside a lambda whose chain passes through the loop frame (closure
// creation marks then) — operator-position loop calls pin nothing, so
// iterative loops recycle every frame. Named-let loop procedures are
// compiled to jumps by real runtimes (Racket never materializes them), so
// this one is not a heap allocation: loops stay allocation-free. The
// closure Obj itself recycles with its frame (Frame.loopc), so a loop
// entry reuses a dead loop's closure. Its Params and Body are the
// analyzed lambda's shared slices, assigned and never appended to.
func (in *Interp) enterLoop(n *node, env *Frame) (*Frame, error) {
	var c *Obj
	if k := len(in.freeClosures); k > 0 {
		c = in.freeClosures[k-1]
		in.freeClosures[k-1] = nil
		in.freeClosures = in.freeClosures[:k-1]
	} else {
		c = &Obj{Kind: KClosure}
		newProc(c)
	}
	lam := n.x.lam
	loopEnv := in.newFrame(env)
	in.owned = append(in.owned, loopEnv)
	x := c.ext.procExt
	x.Params, x.Rest, x.Body, x.Env, x.lam = lam.params, nil, lam.body, loopEnv, lam
	loopEnv.Define(n.sym, c)
	loopEnv.loopc = c
	// Initial loop arguments ride the operand stack, like any other
	// application's.
	abase := len(in.argStack)
	for _, init := range n.kids {
		v, err := in.eval(init, env)
		if err != nil {
			in.argStack = in.argStack[:abase]
			return nil, err
		}
		in.argStack = append(in.argStack, v)
	}
	frame, err := in.bindParams(c, in.argStack[abase:])
	in.argStack = in.argStack[:abase]
	return frame, err
}

// evalCond returns either a tail form or, when tail is nil, the result.
func (in *Interp) evalCond(n *node, env *Frame) (tail *node, v *Obj, err error) {
	for i := range n.x.clauses {
		cl := &n.x.clauses[i]
		if cl.err != nil {
			return nil, nil, cl.err
		}
		tv := True
		if !cl.isElse {
			if tv, err = in.eval(cl.test, env); err != nil {
				return nil, nil, err
			}
		}
		if !Truthy(tv) {
			continue
		}
		if cl.arrow != nil {
			proc, err := in.eval(cl.arrow, env)
			if err != nil {
				return nil, nil, err
			}
			v, err := in.Apply(proc, []*Obj{tv})
			return nil, v, err
		}
		if len(cl.body) == 0 {
			return nil, tv, nil
		}
		tail, err := in.evalSeq(cl.body, env)
		return tail, nil, err
	}
	return nil, Unspecified, nil
}

// evalCase returns the tail form of the matching clause, or nil when the
// result is unspecified (no match, an empty clause, or an error).
func (in *Interp) evalCase(n *node, env *Frame) (*node, error) {
	key, err := in.eval(n.kids[0], env)
	if err != nil {
		return nil, err
	}
	for i := range n.x.clauses {
		cl := &n.x.clauses[i]
		if cl.err != nil {
			return nil, cl.err
		}
		match := cl.isElse
		for dc := cl.data; !match && dc.Kind == KPair; dc = dc.Cdr {
			match = eqv(key, dc.Car)
		}
		if !match {
			continue
		}
		return in.evalSeq(cl.body, env)
	}
	return nil, nil
}

// evalDo runs (do ((var init step)...) (test result...) body...).
func (in *Interp) evalDo(n *node, env *Frame) (*Obj, error) {
	// do-loop frames are managed locally rather than through the owned
	// stack: the loop wholly controls both the current and next frame, so
	// it can recycle the old one at each step swap (releaseFrame skips
	// any frame a closure captured).
	frame := in.newFrame(env)
	for i, init := range n.kids {
		v, err := in.eval(init, env)
		if err != nil {
			return nil, err
		}
		frame.Define(n.x.vars[i], v)
	}
	if n.x.err != nil {
		return nil, n.x.err
	}
	d := n.x.loop
	for {
		in.tick()
		tv, err := in.eval(d.test, frame)
		if err != nil {
			return nil, err
		}
		if Truthy(tv) {
			out := Unspecified
			for _, e := range d.results {
				out, err = in.eval(e, frame)
				if err != nil {
					return nil, err
				}
			}
			in.releaseFrame(frame)
			return out, nil
		}
		for _, e := range d.body {
			if _, err := in.eval(e, frame); err != nil {
				return nil, err
			}
		}
		next := in.newFrame(env)
		for i, step := range d.steps {
			v, err := in.eval(step, frame)
			if err != nil {
				in.releaseFrame(next)
				return nil, err
			}
			next.Define(n.x.vars[i], v)
		}
		in.releaseFrame(frame)
		frame = next
	}
}

// evalQuasi builds a quasiquote template's value (one level of
// unquote and unquote-splicing: enough for the benchmark sources).
func (in *Interp) evalQuasi(q *quasi, env *Frame) (*Obj, error) {
	switch q.kind {
	case qConst:
		return q.val, nil
	case qUnquote:
		return in.eval(q.expr, env)
	case qWrap:
		inner, err := in.evalQuasi(q.inner, env)
		if err != nil {
			return nil, err
		}
		return in.List(q.val, inner), nil
	}
	// Element-wise reconstruction with splicing support.
	var items []*Obj
	for _, it := range q.items {
		if it.kind == qSplice {
			spliced, err := in.eval(it.expr, env)
			if err != nil {
				return nil, err
			}
			parts, ok := ListToSlice(spliced)
			if !ok {
				return nil, evalError("unquote-splicing: not a list")
			}
			items = append(items, parts...)
			continue
		}
		v, err := in.evalQuasi(it, env)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	out := Nil
	if q.tail != nil {
		t, err := in.evalQuasi(q.tail, env)
		if err != nil {
			return nil, err
		}
		out = t
	}
	for i := len(items) - 1; i >= 0; i-- {
		out = in.Cons(items[i], out)
	}
	return out, nil
}

// eqv implements eqv? semantics.
func eqv(a, b *Obj) bool {
	if a == b {
		return true
	}
	if a.Kind != b.Kind {
		// Allow int/float comparison failure (eqv? is strict).
		return false
	}
	switch a.Kind {
	case KInt, KChar:
		return a.Int == b.Int
	case KFloat:
		return a.F() == b.F()
	case KString:
		return false // distinct string objects are not eqv?
	default:
		return false
	}
}

// equalObj implements equal? (deep).
func equalObj(a, b *Obj) bool {
	if eqv(a, b) {
		return true
	}
	if a.Kind != b.Kind {
		if IsNumber(a) && IsNumber(b) {
			return false
		}
		return false
	}
	switch a.Kind {
	case KString, KSymbol:
		return string(a.ext.Str) == string(b.ext.Str)
	case KPair:
		return equalObj(a.Car, b.Car) && equalObj(a.Cdr, b.Cdr)
	case KVector:
		if len(a.ext.Vec) != len(b.ext.Vec) {
			return false
		}
		for i := range a.ext.Vec {
			if !equalObj(a.ext.Vec[i], b.ext.Vec[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

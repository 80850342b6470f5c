package scheme

import "fmt"

// Eval evaluates expr in env. It brackets evalCore with the frame-
// recycling sweep: frames this evaluation created (let frames, parameter
// frames) that did not escape into a closure go back on the free list
// when the evaluation finishes. The returned value cannot reference a
// released frame — only closures hold frames, and closure creation marks
// its whole environment chain escaped.
func (in *Interp) Eval(expr *Obj, env *Frame) (*Obj, error) {
	base := len(in.owned)
	v, err := in.evalCore(expr, env, base)
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
// than at Eval exit, is what lets tail-recursive loops run in constant
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

// evalCore is the evaluator loop, with proper tail calls: tail positions
// update expr/env and loop rather than recursing, so iterative Scheme
// (named let, do loops, tail recursion) runs in constant Go stack — the
// tail-call elimination Racket guarantees. base is the caller's owned-
// frame watermark, used by tail-transition sweeps.
func (in *Interp) evalCore(expr *Obj, env *Frame, base int) (*Obj, error) {
	for {
		in.tick()
		switch expr.Kind {
		case KSymbol:
			v, ok := env.Lookup(expr)
			if !ok {
				return nil, evalError("unbound variable %s", expr.ext.Str)
			}
			// A closure referenced in value position can flow anywhere —
			// returned, stored, passed — so its environment chain must
			// survive the evaluation that built it. This is the one
			// producer of closure values besides makeClosure (which marks
			// at creation): combination heads bypass this case via the
			// fast path below and stay unmarked, which is what lets
			// named-let loop frames recycle.
			if v.Kind == KClosure && v.ext.Env != nil {
				markEscaped(v.ext.Env)
			}
			return v, nil
		case KPair:
			// fall through to combination handling below
		default:
			return expr, nil // self-evaluating
		}

		head := expr.Car
		if head.Kind == KSymbol && head.special != spNone {
			switch head.special {
			case spQuote:
				return expr.Cdr.Car, nil

			case spIf:
				// (if test then [else]) — a proper list of 2 or 3 forms.
				cd := expr.Cdr
				if cd.Kind != KPair || cd.Cdr.Kind != KPair ||
					!(cd.Cdr.Cdr.Kind == KNil ||
						(cd.Cdr.Cdr.Kind == KPair && cd.Cdr.Cdr.Cdr.Kind == KNil)) {
					return nil, evalError("if: malformed")
				}
				c, err := in.Eval(cd.Car, env)
				if err != nil {
					return nil, err
				}
				if Truthy(c) {
					expr = cd.Cdr.Car
				} else if cd.Cdr.Cdr.Kind == KPair {
					expr = cd.Cdr.Cdr.Car
				} else {
					return Unspecified, nil
				}
				continue

			case spDefine:
				return in.evalDefine(expr.Cdr, env)

			case spSet:
				args, ok := ListToSlice(expr.Cdr)
				if !ok || len(args) != 2 || args[0].Kind != KSymbol {
					return nil, evalError("set!: malformed")
				}
				v, err := in.Eval(args[1], env)
				if err != nil {
					return nil, err
				}
				if !env.Set(args[0], v) {
					return nil, evalError("set!: unbound variable %s", args[0].ext.Str)
				}
				return Unspecified, nil

			case spLambda:
				return in.makeClosure(expr.Cdr, env)

			case spBegin:
				cur := expr.Cdr
				if cur.Kind == KNil {
					return Unspecified, nil
				}
				for cur.Kind == KPair && cur.Cdr.Kind == KPair {
					if _, err := in.Eval(cur.Car, env); err != nil {
						return nil, err
					}
					cur = cur.Cdr
				}
				if cur.Kind != KPair || cur.Cdr.Kind != KNil {
					return nil, evalError("begin: malformed")
				}
				expr = cur.Car
				continue

			case spLet, spLetStar, spLetrec:
				var body *Obj
				var le *Frame
				var err error
				switch head.special {
				case spLet:
					body, le, err = in.evalLet(expr.Cdr, env)
				case spLetStar:
					body, le, err = in.evalLetStar(expr.Cdr, env)
				default:
					body, le, err = in.evalLetrec(expr.Cdr, env)
				}
				if err != nil {
					return nil, err
				}
				tail, err := in.evalBodyList(body, le)
				if err != nil {
					return nil, err
				}
				if tail == nil {
					return Unspecified, nil
				}
				expr, env = tail, le
				continue

			case spCond:
				ne, done, v, err := in.evalCond(expr.Cdr, env)
				if err != nil {
					return nil, err
				}
				if done {
					return v, nil
				}
				expr = ne
				continue

			case spCase:
				ne, done, v, err := in.evalCase(expr.Cdr, env)
				if err != nil {
					return nil, err
				}
				if done {
					return v, nil
				}
				expr = ne
				continue

			case spAnd:
				cur := expr.Cdr
				if cur.Kind != KPair {
					return True, nil
				}
				for cur.Cdr.Kind == KPair {
					v, err := in.Eval(cur.Car, env)
					if err != nil {
						return nil, err
					}
					if !Truthy(v) {
						return v, nil
					}
					cur = cur.Cdr
				}
				expr = cur.Car
				continue

			case spOr:
				cur := expr.Cdr
				if cur.Kind != KPair {
					return False, nil
				}
				for cur.Cdr.Kind == KPair {
					v, err := in.Eval(cur.Car, env)
					if err != nil {
						return nil, err
					}
					if Truthy(v) {
						return v, nil
					}
					cur = cur.Cdr
				}
				expr = cur.Car
				continue

			case spWhen, spUnless:
				cur := expr.Cdr
				if cur.Kind != KPair {
					return nil, evalError("%s: malformed", head.ext.Str)
				}
				c, err := in.Eval(cur.Car, env)
				if err != nil {
					return nil, err
				}
				hit := Truthy(c)
				if head.special == spUnless {
					hit = !hit
				}
				if !hit || cur.Cdr.Kind != KPair {
					return Unspecified, nil
				}
				cur = cur.Cdr
				for cur.Cdr.Kind == KPair {
					if _, err := in.Eval(cur.Car, env); err != nil {
						return nil, err
					}
					cur = cur.Cdr
				}
				expr = cur.Car
				continue

			case spDo:
				v, err := in.evalDo(expr.Cdr, env)
				return v, err

			case spQuasiquote:
				return in.evalQuasi(expr.Cdr.Car, env, 1)
			}
		}

		// Combination: evaluate operator and operands, then apply. The
		// operands ride the interpreter's operand stack: pushed here,
		// passed down as a sub-slice, and popped before leaving — callees
		// never retain the slice, so argument lists cost no allocation.
		// Head position: a symbol head is resolved inline — same tick,
		// same charge, but without the KSymbol value-position escape
		// marking, since evalCore consumes fn immediately and never
		// retains it. Calling a named-let loop therefore does not pin its
		// frames.
		var fn *Obj
		if head.Kind == KSymbol {
			in.tick()
			v, ok := env.Lookup(head)
			if !ok {
				return nil, evalError("unbound variable %s", head.ext.Str)
			}
			fn = v
		} else {
			v, err := in.Eval(head, env)
			if err != nil {
				return nil, err
			}
			fn = v
		}
		abase := len(in.argStack)
		for cur := expr.Cdr; cur.Kind == KPair; cur = cur.Cdr {
			a, err := in.Eval(cur.Car, env)
			if err != nil {
				in.argStack = in.argStack[:abase]
				return nil, err
			}
			in.argStack = append(in.argStack, a)
		}
		args := in.argStack[abase:]

		switch fn.Kind {
		case KBuiltin:
			v, err := fn.ext.Fn(in, args)
			in.argStack = in.argStack[:abase]
			return v, err
		case KClosure:
			frame, err := in.bindParams(fn, args)
			in.argStack = in.argStack[:abase]
			if err != nil {
				return nil, err
			}
			if len(fn.ext.Body) == 0 {
				return Unspecified, nil
			}
			for _, e := range fn.ext.Body[:len(fn.ext.Body)-1] {
				if _, err := in.Eval(e, frame); err != nil {
					return nil, err
				}
			}
			in.sweepTail(base, frame)
			expr, env = fn.ext.Body[len(fn.ext.Body)-1], frame
			continue
		default:
			in.argStack = in.argStack[:abase]
			return nil, evalError("not a procedure: %s", WriteString(fn))
		}
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
		for _, e := range fn.ext.Body {
			v, err := in.Eval(e, frame)
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
	frame := in.newFrame(fn.ext.Env)
	in.owned = append(in.owned, frame)
	if fn.ext.Rest == nil && len(args) != len(fn.ext.Params) {
		return nil, evalError("arity: want %d args, got %d", len(fn.ext.Params), len(args))
	}
	if fn.ext.Rest != nil && len(args) < len(fn.ext.Params) {
		return nil, evalError("arity: want at least %d args, got %d", len(fn.ext.Params), len(args))
	}
	for i, p := range fn.ext.Params {
		frame.Define(p, args[i])
	}
	if fn.ext.Rest != nil {
		frame.Define(fn.ext.Rest, in.List(args[len(fn.ext.Params):]...))
	}
	return frame, nil
}

// makeClosure builds a closure from (lambda formals body...).
func (in *Interp) makeClosure(form *Obj, env *Frame) (*Obj, error) {
	if form.Kind != KPair {
		return nil, evalError("lambda: malformed")
	}
	params, rest, err := parseFormals(form.Car)
	if err != nil {
		return nil, err
	}
	body, ok := ListToSlice(form.Cdr)
	if !ok {
		return nil, evalError("lambda: malformed body")
	}
	c := in.alloc(KClosure)
	c.ext = &objExt{Params: params, Rest: rest, Body: body, Env: env}
	markEscaped(env)
	return c, nil
}

func parseFormals(f *Obj) (params []*Obj, rest *Obj, err error) {
	switch f.Kind {
	case KSymbol: // (lambda args ...)
		return nil, f, nil
	case KNil:
		return nil, nil, nil
	case KPair:
		cur := f
		for cur.Kind == KPair {
			if cur.Car.Kind != KSymbol {
				return nil, nil, evalError("lambda: non-symbol formal")
			}
			params = append(params, cur.Car)
			cur = cur.Cdr
		}
		if cur.Kind == KSymbol {
			rest = cur
		} else if cur.Kind != KNil {
			return nil, nil, evalError("lambda: malformed formals")
		}
		return params, rest, nil
	default:
		return nil, nil, evalError("lambda: malformed formals")
	}
}

// evalDefine handles (define x v) and (define (f . formals) body...).
func (in *Interp) evalDefine(form *Obj, env *Frame) (*Obj, error) {
	if form.Kind != KPair {
		return nil, evalError("define: malformed")
	}
	target := form.Car
	switch target.Kind {
	case KSymbol:
		if form.Cdr.Kind != KPair {
			env.Define(target, Unspecified)
			return Unspecified, nil
		}
		v, err := in.Eval(form.Cdr.Car, env)
		if err != nil {
			return nil, err
		}
		env.Define(target, v)
		return Unspecified, nil
	case KPair:
		name := target.Car
		if name.Kind != KSymbol {
			return nil, evalError("define: bad function name")
		}
		lam := in.Cons(target.Cdr, form.Cdr) // (formals body...)
		c, err := in.makeClosure(lam, env)
		if err != nil {
			return nil, err
		}
		c.ext.Name = name.ext.Name
		env.Define(name, c)
		return Unspecified, nil
	default:
		return nil, evalError("define: malformed")
	}
}

// evalBodyList evaluates all but the last expression of a body (a pair
// chain), returning the last as the caller's new tail expression (nil for
// an empty body). It never allocates: multi-expression bodies need no
// begin-wrapping and no slice conversion.
func (in *Interp) evalBodyList(body *Obj, env *Frame) (*Obj, error) {
	if body.Kind != KPair {
		return nil, nil
	}
	for body.Cdr.Kind == KPair {
		if _, err := in.Eval(body.Car, env); err != nil {
			return nil, err
		}
		body = body.Cdr
	}
	return body.Car, nil
}

// checkBinding validates one (symbol init) binding form.
func checkBinding(b *Obj) error {
	if b.Kind != KPair || b.Car.Kind != KSymbol || b.Cdr.Kind != KPair {
		return evalError("let: malformed binding %s", WriteString(b))
	}
	return nil
}

// evalLet handles plain and named let, returning the body (a pair chain)
// and the new environment.
func (in *Interp) evalLet(form *Obj, env *Frame) (*Obj, *Frame, error) {
	if form.Kind != KPair {
		return nil, nil, evalError("let: malformed")
	}
	// Named let: (let loop ((v init)...) body...)
	if form.Car.Kind == KSymbol {
		name := form.Car
		rest := form.Cdr
		if rest.Kind != KPair {
			return nil, nil, evalError("named let: malformed")
		}
		binds, body := rest.Car, rest.Cdr
		// loopEnv is owned and recyclable, not escaped: the loop closure
		// below is deliberately unmarked. It can only leak out of the
		// loop by being referenced in value position (the KSymbol case
		// marks then) or by being captured inside a lambda whose chain
		// passes through loopEnv (makeClosure marks then) — head-position
		// loop calls pin nothing, so iterative loops recycle every frame.
		// Named-let loop procedures are compiled to jumps by real
		// runtimes (Racket never materializes them), so this one is not
		// a heap allocation: loops stay allocation-free. The closure Obj
		// itself recycles with its frame (Frame.loopc), so a loop entry
		// reuses a dead loop's closure and backing arrays.
		var c *Obj
		if n := len(in.freeClosures); n > 0 {
			c = in.freeClosures[n-1]
			in.freeClosures[n-1] = nil
			in.freeClosures = in.freeClosures[:n-1]
			ce := c.ext
			ce.Params = ce.Params[:0]
			ce.Body = ce.Body[:0]
			ce.Rest = nil
		} else {
			c = &Obj{Kind: KClosure, ext: &objExt{}}
		}
		ce := c.ext
		cur := binds
		for ; cur.Kind == KPair; cur = cur.Cdr {
			if err := checkBinding(cur.Car); err != nil {
				return nil, nil, err
			}
			ce.Params = append(ce.Params, cur.Car.Car)
		}
		if cur.Kind != KNil {
			return nil, nil, evalError("let: improper binding list")
		}
		for b := body; b.Kind == KPair; b = b.Cdr {
			ce.Body = append(ce.Body, b.Car)
		}
		loopEnv := in.newFrame(env)
		in.owned = append(in.owned, loopEnv)
		ce.Env = loopEnv
		ce.Name = name.ext.Name
		loopEnv.Define(name, c)
		loopEnv.loopc = c
		// Initial loop arguments ride the operand stack, like any other
		// application's.
		abase := len(in.argStack)
		for b := binds; b.Kind == KPair; b = b.Cdr {
			v, err := in.Eval(b.Car.Cdr.Car, env)
			if err != nil {
				in.argStack = in.argStack[:abase]
				return nil, nil, err
			}
			in.argStack = append(in.argStack, v)
		}
		frame, err := in.bindParams(c, in.argStack[abase:])
		in.argStack = in.argStack[:abase]
		if err != nil {
			return nil, nil, err
		}
		return body, frame, nil
	}

	// Plain let: inits evaluate in the outer env, bindings land directly
	// in the fresh frame — no params/inits slices.
	frame := in.newFrame(env)
	in.owned = append(in.owned, frame)
	cur := form.Car
	for ; cur.Kind == KPair; cur = cur.Cdr {
		b := cur.Car
		if err := checkBinding(b); err != nil {
			return nil, nil, err
		}
		v, err := in.Eval(b.Cdr.Car, env)
		if err != nil {
			return nil, nil, err
		}
		frame.Define(b.Car, v)
	}
	if cur.Kind != KNil {
		return nil, nil, evalError("let: improper binding list")
	}
	return form.Cdr, frame, nil
}

func (in *Interp) evalLetStar(form *Obj, env *Frame) (*Obj, *Frame, error) {
	if form.Kind != KPair {
		return nil, nil, evalError("let*: malformed")
	}
	frame := env
	cur := form.Car
	for ; cur.Kind == KPair; cur = cur.Cdr {
		b := cur.Car
		if err := checkBinding(b); err != nil {
			return nil, nil, err
		}
		frame = in.newFrame(frame)
		in.owned = append(in.owned, frame)
		v, err := in.Eval(b.Cdr.Car, frame)
		if err != nil {
			return nil, nil, err
		}
		frame.Define(b.Car, v)
	}
	if cur.Kind != KNil {
		return nil, nil, evalError("let: improper binding list")
	}
	if frame == env {
		frame = in.newFrame(env)
		in.owned = append(in.owned, frame)
	}
	return form.Cdr, frame, nil
}

func (in *Interp) evalLetrec(form *Obj, env *Frame) (*Obj, *Frame, error) {
	if form.Kind != KPair {
		return nil, nil, evalError("letrec: malformed")
	}
	frame := in.newFrame(env)
	in.owned = append(in.owned, frame)
	cur := form.Car
	for ; cur.Kind == KPair; cur = cur.Cdr {
		if err := checkBinding(cur.Car); err != nil {
			return nil, nil, err
		}
		frame.Define(cur.Car.Car, Unspecified)
	}
	if cur.Kind != KNil {
		return nil, nil, evalError("let: improper binding list")
	}
	for cur = form.Car; cur.Kind == KPair; cur = cur.Cdr {
		b := cur.Car
		v, err := in.Eval(b.Cdr.Car, frame)
		if err != nil {
			return nil, nil, err
		}
		frame.Define(b.Car, v)
	}
	return form.Cdr, frame, nil
}

// evalCond returns either a tail expression or a final value.
func (in *Interp) evalCond(clauses *Obj, env *Frame) (tail *Obj, done bool, v *Obj, err error) {
	for cur := clauses; cur.Kind == KPair; cur = cur.Cdr {
		cl := cur.Car
		if cl.Kind != KPair {
			return nil, false, nil, evalError("cond: malformed clause")
		}
		test := cl.Car
		isElse := test.Kind == KSymbol && string(test.ext.Str) == "else"
		var tv *Obj
		if isElse {
			tv = True
		} else {
			tv, err = in.Eval(test, env)
			if err != nil {
				return nil, false, nil, err
			}
		}
		if !Truthy(tv) {
			continue
		}
		body, _ := ListToSlice(cl.Cdr)
		if len(body) == 0 {
			return nil, true, tv, nil
		}
		// (test => proc)
		if len(body) == 2 && body[0].Kind == KSymbol && string(body[0].ext.Str) == "=>" {
			proc, err := in.Eval(body[1], env)
			if err != nil {
				return nil, false, nil, err
			}
			v, err := in.Apply(proc, []*Obj{tv})
			return nil, true, v, err
		}
		for _, e := range body[:len(body)-1] {
			if _, err := in.Eval(e, env); err != nil {
				return nil, false, nil, err
			}
		}
		return body[len(body)-1], false, nil, nil
	}
	return nil, true, Unspecified, nil
}

func (in *Interp) evalCase(form *Obj, env *Frame) (tail *Obj, done bool, v *Obj, err error) {
	if form.Kind != KPair {
		return nil, false, nil, evalError("case: malformed")
	}
	key, err := in.Eval(form.Car, env)
	if err != nil {
		return nil, false, nil, err
	}
	for cur := form.Cdr; cur.Kind == KPair; cur = cur.Cdr {
		cl := cur.Car
		if cl.Kind != KPair {
			return nil, false, nil, evalError("case: malformed clause")
		}
		match := false
		if cl.Car.Kind == KSymbol && string(cl.Car.ext.Str) == "else" {
			match = true
		} else {
			for dc := cl.Car; dc.Kind == KPair; dc = dc.Cdr {
				if eqv(key, dc.Car) {
					match = true
					break
				}
			}
		}
		if !match {
			continue
		}
		body, _ := ListToSlice(cl.Cdr)
		if len(body) == 0 {
			return nil, true, Unspecified, nil
		}
		for _, e := range body[:len(body)-1] {
			if _, err := in.Eval(e, env); err != nil {
				return nil, false, nil, err
			}
		}
		return body[len(body)-1], false, nil, nil
	}
	return nil, true, Unspecified, nil
}

// evalDo implements (do ((var init step)...) (test result...) body...).
func (in *Interp) evalDo(form *Obj, env *Frame) (*Obj, error) {
	if form.Kind != KPair || form.Cdr.Kind != KPair {
		return nil, evalError("do: malformed")
	}
	// do-loop frames are managed locally rather than through the owned
	// stack: the loop wholly controls both the current and next frame, so
	// it can recycle the old one at each step swap (releaseFrame skips
	// any frame a closure captured).
	var names []*Obj
	var steps []*Obj
	frame := in.newFrame(env)
	for cur := form.Car; cur.Kind == KPair; cur = cur.Cdr {
		spec, _ := ListToSlice(cur.Car)
		if len(spec) < 2 || spec[0].Kind != KSymbol {
			return nil, evalError("do: malformed variable spec")
		}
		v, err := in.Eval(spec[1], env)
		if err != nil {
			return nil, err
		}
		frame.Define(spec[0], v)
		names = append(names, spec[0])
		if len(spec) >= 3 {
			steps = append(steps, spec[2])
		} else {
			steps = append(steps, spec[0])
		}
	}
	testClause, _ := ListToSlice(form.Cdr.Car)
	if len(testClause) == 0 {
		return nil, evalError("do: missing test")
	}
	body, _ := ListToSlice(form.Cdr.Cdr)
	for {
		in.tick()
		tv, err := in.Eval(testClause[0], frame)
		if err != nil {
			return nil, err
		}
		if Truthy(tv) {
			out := Unspecified
			for _, e := range testClause[1:] {
				out, err = in.Eval(e, frame)
				if err != nil {
					return nil, err
				}
			}
			in.releaseFrame(frame)
			return out, nil
		}
		for _, e := range body {
			if _, err := in.Eval(e, frame); err != nil {
				return nil, err
			}
		}
		next := in.newFrame(env)
		for i, n := range names {
			v, err := in.Eval(steps[i], frame)
			if err != nil {
				in.releaseFrame(next)
				return nil, err
			}
			next.Define(n, v)
		}
		in.releaseFrame(frame)
		frame = next
	}
}

// evalQuasi implements one-level quasiquotation with unquote and
// unquote-splicing (enough for the benchmark sources).
func (in *Interp) evalQuasi(form *Obj, env *Frame, depth int) (*Obj, error) {
	if form.Kind != KPair {
		return form, nil
	}
	if form.Car.Kind == KSymbol {
		switch string(form.Car.ext.Str) {
		case "unquote":
			if depth == 1 {
				return in.Eval(form.Cdr.Car, env)
			}
			inner, err := in.evalQuasi(form.Cdr.Car, env, depth-1)
			if err != nil {
				return nil, err
			}
			return in.List(in.Intern("unquote"), inner), nil
		case "quasiquote":
			inner, err := in.evalQuasi(form.Cdr.Car, env, depth+1)
			if err != nil {
				return nil, err
			}
			return in.List(in.Intern("quasiquote"), inner), nil
		}
	}
	// Element-wise reconstruction with splicing support.
	var items []*Obj
	cur := form
	for cur.Kind == KPair {
		el := cur.Car
		if el.Kind == KPair && el.Car.Kind == KSymbol && string(el.Car.ext.Str) == "unquote-splicing" && depth == 1 {
			spliced, err := in.Eval(el.Cdr.Car, env)
			if err != nil {
				return nil, err
			}
			parts, ok := ListToSlice(spliced)
			if !ok {
				return nil, evalError("unquote-splicing: not a list")
			}
			items = append(items, parts...)
		} else {
			v, err := in.evalQuasi(el, env, depth)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
		cur = cur.Cdr
	}
	tail := Nil
	if cur.Kind != KNil {
		t, err := in.evalQuasi(cur, env, depth)
		if err != nil {
			return nil, err
		}
		tail = t
	}
	out := tail
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
		return a.Float == b.Float
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

var _ = fmt.Sprintf

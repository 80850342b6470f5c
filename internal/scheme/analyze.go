package scheme

// Analysis turns a form into a tree of nodes once, before it first runs —
// the step a compiling runtime's expander performs. It dispatches special
// forms, turns operand lists and bodies into slices, and resolves every
// variable reference to the frame that binds it or to its global cell.
//
// Analysis is host-only: it makes no allocation in the simulated heap,
// charges no cycles and issues no system calls. Everything observable
// happens at run time, in source order: reductions, heap allocations,
// escape marking, and errors. A malformed form therefore analyzes into a
// node that raises its error only when it runs, after whatever the form
// evaluated first.

// op is a node's dispatch code.
type op uint8

const (
	opConst      op = iota // val: a self-evaluating datum or a quotation
	opRef                  // sym, resolved to depth/slot or cell
	opFail                 // kids, then err
	opIf                   // kids: test, then[, else]
	opDefine               // sym, cell; kids: the value, if any
	opDefineProc           // sym, cell, lam; val: (target body...); err
	opSet                  // sym, resolved like opRef; kids: the value
	opLambda               // lam
	opBegin                // body
	opLet                  // vars, kids (inits), err, body
	opNamedLet             // sym (loop name), kids (inits), lam
	opLetStar              // vars, kids (inits), err, body
	opLetrec               // vars, kids (inits), body
	opCond                 // clauses
	opCase                 // kids: key; clauses
	opAnd                  // body
	opOr                   // body
	opWhen                 // kids: test; body
	opUnless               // kids: test; body
	opDo                   // vars, kids (inits), err, loop
	opQuasi                // q
	opCall                 // kids: operands; the operator is read like opRef
	opCallExpr             // kids: operator, operands
)

// node is one analyzed form. Which fields an op uses is listed with it.
type node struct {
	op op

	// A resolved reference: the binding is in the frame depth links up
	// the chain, at slot unless the frame's defines ran in another order
	// or not yet — or, when cell is set, in the global frame.
	depth int32
	slot  int32
	sym   *Obj
	cell  *gcell

	val  *Obj
	kids []*node // what the form evaluates before its body, in order

	// body is a sequence: all but the last run for effect, the last in
	// tail position.
	body []*node

	x *nodeExt // the rest, for the ops that use it
}

// nodeExt holds the node fields only some ops use, which keeps the hot ones
// in two cache lines.
type nodeExt struct {
	err     error  // a malformed form's error, raised once kids have run
	vars    []*Obj // the names a binding form binds, one per init
	lam     *lambda
	clauses []clause
	loop    *doLoop
	q       *quasi
}

// lambda is an analyzed procedure. Every closure over it shares its
// source — params, rest and body become the closure's Params, Rest and
// Body, which the collector marks through — and runs code.
type lambda struct {
	params []*Obj
	rest   *Obj
	body   []*Obj
	code   []*node

	// direct records that params are distinct and fit a frame inline, so
	// binding them is a copy rather than a Define per parameter.
	direct bool
}

// clause is one cond or case clause.
type clause struct {
	test   *node // cond: the test (nil for else)
	data   *Obj  // case: the datum list
	isElse bool
	arrow  *node   // cond (test => proc): the proc expression
	body   []*node // empty: the clause yields its test value (cond) or nothing (case)
	err    error   // a malformed clause, raised when it is reached
}

// doLoop is the per-iteration part of (do ((var init step)...) (test
// result...) body...).
type doLoop struct {
	test    *node
	results []*node
	body    []*node
	steps   []*node // one per var; a var without a step steps to itself
}

// quasi is an analyzed quasiquote template.
type quasi struct {
	kind  uint8
	val   *Obj     // qConst: the datum; qWrap: the unquote/quasiquote symbol
	expr  *node    // qUnquote, qSplice
	inner *quasi   // qWrap
	items []*quasi // qList
	tail  *quasi   // qList: the improper tail, or nil
}

const (
	qConst   uint8 = iota // a datum rebuilt as is
	qUnquote              // ,expr at depth 1
	qSplice               // ,@expr at depth 1, as a list item
	qWrap                 // (unquote x) or (quasiquote x) at another depth
	qList                 // a list rebuilt element by element
)

// scope is the static image of one run-time frame: the names its binding
// form binds, then the names internal defines evaluated in it may add, in
// the order analysis meets them. The root scope stands for the global
// frame, whose bindings are cells.
type scope struct {
	parent *scope
	keys   []*Obj
}

func (s *scope) index(sym *Obj) int {
	for i, k := range s.keys {
		if k == sym {
			return i
		}
	}
	return -1
}

// bind adds sym unless the scope has it: a frame defines a name at most
// once, at the slot of its first binding.
func (s *scope) bind(sym *Obj) {
	if s.index(sym) < 0 {
		s.keys = append(s.keys, sym)
	}
}

// analyzer analyzes one top-level form. References resolve only after the
// whole form is analyzed, once every scope's defines are known: a lambda
// can refer to a name its enclosing body defines further down.
type analyzer struct {
	in   *Interp
	refs []pendingRef
}

type pendingRef struct {
	n  *node
	sc *scope
}

// analyze analyzes a top-level form, which runs in the global frame.
func (in *Interp) analyze(form *Obj) *node {
	a := analyzer{in: in}
	n := a.form(form, &scope{})
	for _, r := range a.refs {
		a.resolve(r.n, r.sc)
	}
	return n
}

// resolve finds the frame that binds n.sym, counting frames up from sc.
// The frames in between cannot bind it: every name a frame ever holds is
// in its scope.
func (a *analyzer) resolve(n *node, sc *scope) {
	depth := int32(0)
	for ; sc.parent != nil; sc = sc.parent {
		if i := sc.index(n.sym); i >= 0 {
			n.depth, n.slot = depth, int32(i)
			return
		}
		depth++
	}
	n.cell = a.in.globalCell(n.sym)
}

// globalCell returns sym's global binding cell, creating an empty one for
// a name not yet defined.
func (in *Interp) globalCell(sym *Obj) *gcell {
	c, ok := in.global.big[sym]
	if !ok {
		c = &gcell{}
		in.global.big[sym] = c
	}
	return c
}

// ref analyzes a variable reference (or a set! target) in sc.
func (a *analyzer) ref(n *node, sc *scope) *node {
	a.refs = append(a.refs, pendingRef{n, sc})
	return n
}

// define records that a define of sym runs in sc's frame.
func (a *analyzer) define(n *node, sc *scope) {
	if sc.parent == nil {
		n.cell = a.in.globalCell(n.sym)
	} else {
		sc.bind(n.sym)
	}
}

func fail(err error) *node { return &node{op: opFail, x: &nodeExt{err: err}} }

func (a *analyzer) forms(list []*Obj, sc *scope) []*node {
	out := make([]*node, len(list))
	for i, x := range list {
		out[i] = a.form(x, sc)
	}
	return out
}

// pairs returns the Cars of a pair chain; an improper tail is ignored.
func pairs(list *Obj) []*Obj {
	out, _ := ListToSlice(list)
	return out
}

// form analyzes x in sc.
func (a *analyzer) form(x *Obj, sc *scope) *node {
	if x == nil {
		return fail(evalError("malformed form"))
	}
	switch x.Kind {
	case KSymbol:
		return a.ref(&node{op: opRef, sym: x}, sc)
	case KPair:
	default:
		return &node{op: opConst, val: x} // self-evaluating
	}
	head := x.Car
	if head.Kind == KSymbol && head.special != spNone {
		return a.special(head, x.Cdr, sc)
	}
	if head.Kind == KSymbol {
		// The call node carries its operator's reference itself: the
		// hot path reads no second node.
		return a.ref(&node{op: opCall, sym: head, kids: a.forms(pairs(x.Cdr), sc)}, sc)
	}
	return &node{op: opCallExpr, kids: a.forms(pairs(x), sc)}
}

// special analyzes a special form: head is its keyword, form the rest.
func (a *analyzer) special(head, form *Obj, sc *scope) *node {
	switch head.special {
	case spQuote:
		return &node{op: opConst, val: form.Car}

	case spIf:
		// (if test then [else]) — a proper list of 2 or 3 forms.
		if form.Kind != KPair || form.Cdr.Kind != KPair ||
			!(form.Cdr.Cdr.Kind == KNil ||
				(form.Cdr.Cdr.Kind == KPair && form.Cdr.Cdr.Cdr.Kind == KNil)) {
			return fail(evalError("if: malformed"))
		}
		return &node{op: opIf, kids: a.forms(pairs(form), sc)}

	case spDefine:
		return a.defineForm(form, sc)

	case spSet:
		args, ok := ListToSlice(form)
		if !ok || len(args) != 2 || args[0].Kind != KSymbol {
			return fail(evalError("set!: malformed"))
		}
		return a.ref(&node{op: opSet, sym: args[0], kids: []*node{a.form(args[1], sc)}}, sc)

	case spLambda:
		if form.Kind != KPair {
			return fail(evalError("lambda: malformed"))
		}
		lam, err := a.lambda(form.Car, form.Cdr, sc)
		if err != nil {
			return fail(err)
		}
		return &node{op: opLambda, x: &nodeExt{lam: lam}}

	case spBegin:
		if form.Kind == KNil {
			return &node{op: opConst, val: Unspecified}
		}
		var body []*node
		cur := form
		for cur.Kind == KPair && cur.Cdr.Kind == KPair {
			body = append(body, a.form(cur.Car, sc))
			cur = cur.Cdr
		}
		if cur.Kind != KPair || cur.Cdr.Kind != KNil {
			n := fail(evalError("begin: malformed"))
			n.kids = body
			return n
		}
		return &node{op: opBegin, body: append(body, a.form(cur.Car, sc))}

	case spLet:
		if form.Kind != KPair {
			return fail(evalError("let: malformed"))
		}
		if form.Car.Kind == KSymbol {
			return a.namedLet(form.Car, form.Cdr, sc)
		}
		// Inits run in the outer frame, so only the bindings land in the
		// new one.
		n := &node{op: opLet, x: &nodeExt{}}
		cur := form.Car
		for ; cur.Kind == KPair; cur = cur.Cdr {
			b := cur.Car
			if n.x.err = checkBinding(b); n.x.err != nil {
				return n
			}
			n.kids = append(n.kids, a.form(b.Cdr.Car, sc))
			n.x.vars = append(n.x.vars, b.Car)
		}
		if cur.Kind != KNil {
			n.x.err = evalError("let: improper binding list")
			return n
		}
		inner := &scope{parent: sc}
		for _, v := range n.x.vars {
			inner.bind(v)
		}
		n.body = a.forms(pairs(form.Cdr), inner)
		return n

	case spLetStar:
		if form.Kind != KPair {
			return fail(evalError("let*: malformed"))
		}
		// One frame per binding; each init runs in its binding's frame
		// before the binding is made.
		n := &node{op: opLetStar, x: &nodeExt{}}
		inner := sc
		cur := form.Car
		for ; cur.Kind == KPair; cur = cur.Cdr {
			b := cur.Car
			if n.x.err = checkBinding(b); n.x.err != nil {
				return n
			}
			inner = &scope{parent: inner}
			n.kids = append(n.kids, a.form(b.Cdr.Car, inner))
			n.x.vars = append(n.x.vars, b.Car)
			inner.bind(b.Car)
		}
		if cur.Kind != KNil {
			n.x.err = evalError("let: improper binding list")
			return n
		}
		if inner == sc {
			inner = &scope{parent: sc}
		}
		n.body = a.forms(pairs(form.Cdr), inner)
		return n

	case spLetrec:
		if form.Kind != KPair {
			return fail(evalError("letrec: malformed"))
		}
		n := &node{op: opLetrec, x: &nodeExt{}}
		inner := &scope{parent: sc}
		cur := form.Car
		for ; cur.Kind == KPair; cur = cur.Cdr {
			if err := checkBinding(cur.Car); err != nil {
				return fail(err)
			}
			n.x.vars = append(n.x.vars, cur.Car.Car)
			inner.bind(cur.Car.Car)
		}
		if cur.Kind != KNil {
			return fail(evalError("let: improper binding list"))
		}
		for cur = form.Car; cur.Kind == KPair; cur = cur.Cdr {
			n.kids = append(n.kids, a.form(cur.Car.Cdr.Car, inner))
		}
		n.body = a.forms(pairs(form.Cdr), inner)
		return n

	case spCond:
		n := &node{op: opCond, x: &nodeExt{}}
		for cur := form; cur.Kind == KPair; cur = cur.Cdr {
			cl := cur.Car
			if cl.Kind != KPair {
				n.x.clauses = append(n.x.clauses, clause{err: evalError("cond: malformed clause")})
				break
			}
			c := clause{isElse: isSymbolNamed(cl.Car, "else")}
			if !c.isElse {
				c.test = a.form(cl.Car, sc)
			}
			body := pairs(cl.Cdr)
			if len(body) == 2 && isSymbolNamed(body[0], "=>") {
				c.arrow = a.form(body[1], sc)
			} else {
				c.body = a.forms(body, sc)
			}
			n.x.clauses = append(n.x.clauses, c)
		}
		return n

	case spCase:
		if form.Kind != KPair {
			return fail(evalError("case: malformed"))
		}
		n := &node{op: opCase, kids: []*node{a.form(form.Car, sc)}, x: &nodeExt{}}
		for cur := form.Cdr; cur.Kind == KPair; cur = cur.Cdr {
			cl := cur.Car
			if cl.Kind != KPair {
				n.x.clauses = append(n.x.clauses, clause{err: evalError("case: malformed clause")})
				break
			}
			n.x.clauses = append(n.x.clauses, clause{
				data:   cl.Car,
				isElse: isSymbolNamed(cl.Car, "else"),
				body:   a.forms(pairs(cl.Cdr), sc),
			})
		}
		return n

	case spAnd, spOr:
		if form.Kind != KPair {
			return &node{op: opConst, val: Boolean(head.special == spAnd)}
		}
		op := opAnd
		if head.special == spOr {
			op = opOr
		}
		var body []*node
		cur := form
		for ; cur.Cdr.Kind == KPair; cur = cur.Cdr {
			body = append(body, a.form(cur.Car, sc))
		}
		return &node{op: op, body: append(body, a.form(cur.Car, sc))}

	case spWhen, spUnless:
		if form.Kind != KPair {
			return fail(evalError("%s: malformed", head.ext.Str))
		}
		op := opWhen
		if head.special == spUnless {
			op = opUnless
		}
		return &node{op: op, kids: []*node{a.form(form.Car, sc)}, body: a.forms(pairs(form.Cdr), sc)}

	case spDo:
		return a.doForm(form, sc)

	case spQuasiquote:
		return &node{op: opQuasi, x: &nodeExt{q: a.quasi(form.Car, 1, sc)}}
	}
	panic("scheme: unhandled special form " + string(head.ext.Str))
}

func isSymbolNamed(o *Obj, name string) bool {
	return o.Kind == KSymbol && string(o.ext.Str) == name
}

// checkBinding validates one (symbol init) binding form.
func checkBinding(b *Obj) error {
	if b.Kind != KPair || b.Car.Kind != KSymbol || b.Cdr.Kind != KPair {
		return evalError("let: malformed binding %s", WriteString(b))
	}
	return nil
}

// defineForm analyzes (define x v) and (define (f . formals) body...).
func (a *analyzer) defineForm(form *Obj, sc *scope) *node {
	if form.Kind != KPair {
		return fail(evalError("define: malformed"))
	}
	target := form.Car
	switch target.Kind {
	case KSymbol:
		n := &node{op: opDefine, sym: target}
		if form.Cdr.Kind == KPair {
			n.kids = []*node{a.form(form.Cdr.Car, sc)}
		}
		a.define(n, sc)
		return n
	case KPair:
		name := target.Car
		if name.Kind != KSymbol {
			return fail(evalError("define: bad function name"))
		}
		// The define still conses (formals body...) when it runs, as
		// the lambda it stands for: that cell is a heap allocation the
		// pinned cycle and collector figures count. A formals or body
		// error comes after it.
		n := &node{op: opDefineProc, sym: name, val: form, x: &nodeExt{}}
		n.x.lam, n.x.err = a.lambda(target.Cdr, form.Cdr, sc)
		a.define(n, sc)
		return n
	default:
		return fail(evalError("define: malformed"))
	}
}

// lambda analyzes a procedure with the given formals and body, closed
// over sc.
func (a *analyzer) lambda(formals, body *Obj, sc *scope) (*lambda, error) {
	params, rest, err := parseFormals(formals)
	if err != nil {
		return nil, err
	}
	forms, ok := ListToSlice(body)
	if !ok {
		return nil, evalError("lambda: malformed body")
	}
	return a.procedure(params, rest, forms, sc), nil
}

// procedure analyzes a body in a fresh frame binding params and rest.
func (a *analyzer) procedure(params []*Obj, rest *Obj, body []*Obj, sc *scope) *lambda {
	inner := &scope{parent: sc}
	for _, p := range params {
		inner.bind(p)
	}
	lam := &lambda{
		params: params,
		rest:   rest,
		body:   body,
		direct: len(inner.keys) == len(params) && len(params) <= frameInline,
	}
	if rest != nil {
		inner.bind(rest)
	}
	lam.code = a.forms(body, inner)
	return lam
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

// namedLet analyzes (let name ((v init)...) body...): the loop closure's
// frame binds name, and the loop procedure's frame binds the vars.
func (a *analyzer) namedLet(name, rest *Obj, sc *scope) *node {
	if rest.Kind != KPair {
		return fail(evalError("named let: malformed"))
	}
	binds := rest.Car
	var params []*Obj
	cur := binds
	for ; cur.Kind == KPair; cur = cur.Cdr {
		if err := checkBinding(cur.Car); err != nil {
			return fail(err)
		}
		params = append(params, cur.Car.Car)
	}
	if cur.Kind != KNil {
		return fail(evalError("let: improper binding list"))
	}
	n := &node{op: opNamedLet, sym: name, x: &nodeExt{}}
	for b := binds; b.Kind == KPair; b = b.Cdr {
		n.kids = append(n.kids, a.form(b.Car.Cdr.Car, sc))
	}
	loopScope := &scope{parent: sc, keys: []*Obj{name}}
	n.x.lam = a.procedure(params, nil, pairs(rest.Cdr), loopScope)
	return n
}

// doForm analyzes (do ((var init step)...) (test result...) body...).
func (a *analyzer) doForm(form *Obj, sc *scope) *node {
	if form.Kind != KPair || form.Cdr.Kind != KPair {
		return fail(evalError("do: malformed"))
	}
	n := &node{op: opDo, x: &nodeExt{}}
	var steps []*Obj
	for cur := form.Car; cur.Kind == KPair; cur = cur.Cdr {
		spec := pairs(cur.Car)
		if len(spec) < 2 || spec[0].Kind != KSymbol {
			n.x.err = evalError("do: malformed variable spec")
			return n
		}
		n.kids = append(n.kids, a.form(spec[1], sc))
		n.x.vars = append(n.x.vars, spec[0])
		if len(spec) >= 3 {
			steps = append(steps, spec[2])
		} else {
			steps = append(steps, spec[0])
		}
	}
	testClause := pairs(form.Cdr.Car)
	if len(testClause) == 0 {
		n.x.err = evalError("do: missing test")
		return n
	}
	inner := &scope{parent: sc}
	for _, v := range n.x.vars {
		inner.bind(v)
	}
	n.x.loop = &doLoop{
		test:    a.form(testClause[0], inner),
		results: a.forms(testClause[1:], inner),
		body:    a.forms(pairs(form.Cdr.Cdr), inner),
		steps:   a.forms(steps, inner),
	}
	return n
}

// quasi analyzes a quasiquote template at the given nesting depth.
func (a *analyzer) quasi(form *Obj, depth int, sc *scope) *quasi {
	if form == nil {
		return &quasi{kind: qUnquote, expr: a.form(nil, sc)}
	}
	if form.Kind != KPair {
		return &quasi{kind: qConst, val: form}
	}
	if form.Car.Kind == KSymbol {
		switch string(form.Car.ext.Str) {
		case "unquote":
			if depth == 1 {
				return &quasi{kind: qUnquote, expr: a.form(form.Cdr.Car, sc)}
			}
			return &quasi{kind: qWrap, val: form.Car, inner: a.quasi(form.Cdr.Car, depth-1, sc)}
		case "quasiquote":
			return &quasi{kind: qWrap, val: form.Car, inner: a.quasi(form.Cdr.Car, depth+1, sc)}
		}
	}
	q := &quasi{kind: qList}
	cur := form
	for ; cur.Kind == KPair; cur = cur.Cdr {
		el := cur.Car
		if depth == 1 && el.Kind == KPair && isSymbolNamed(el.Car, "unquote-splicing") {
			q.items = append(q.items, &quasi{kind: qSplice, expr: a.form(el.Cdr.Car, sc)})
		} else {
			q.items = append(q.items, a.quasi(el, depth, sc))
		}
	}
	if cur.Kind != KNil {
		q.tail = a.quasi(cur, depth, sc)
	}
	return q
}

package spectext

import (
	"fmt"
	"strconv"
	"strings"

	"commlat/internal/core"
)

// Parse reads a complete specification file: an `adt` declaration,
// `method` declarations, optional `pure` declarations, optional
// `oriented m1 ~ m2` declarations (marking a pair whose condition is
// intentionally orientation-sensitive, see Spec.SetOriented), and one
// condition line per (ordered) method pair. A second condition line for
// the same ordered pair is an error — silent last-write-wins made a
// stale edit win over the line the author thought was in force.
func Parse(src string) (*core.Spec, error) {
	var sig *core.ADTSig
	var pure []string
	type pairLine struct {
		m1, m2 string
		toks   []token
		line   int
	}
	var pairs []pairLine
	type orientLine struct {
		m1, m2 string
		line   int
	}
	var orients []orientLine

	for lineno, raw := range strings.Split(src, "\n") {
		toks, err := lexLine(raw, lineno+1)
		if err != nil {
			return nil, err
		}
		if toks[0].kind == tokEOF {
			continue // blank or comment-only line
		}
		head := toks[0]
		switch {
		case head.kind == tokIdent && head.text == "adt":
			if sig != nil {
				return nil, fmt.Errorf("line %d: duplicate adt declaration", lineno+1)
			}
			if len(toks) < 3 || toks[1].kind != tokIdent {
				return nil, fmt.Errorf("line %d: usage: adt <name>", lineno+1)
			}
			sig = &core.ADTSig{Name: toks[1].text}
		case head.kind == tokIdent && head.text == "method":
			if sig == nil {
				return nil, fmt.Errorf("line %d: method before adt", lineno+1)
			}
			ms, err := parseMethod(toks[1:], lineno+1)
			if err != nil {
				return nil, err
			}
			if _, dup := sig.Method(ms.Name); dup {
				return nil, fmt.Errorf("line %d: duplicate method %q", lineno+1, ms.Name)
			}
			sig.Methods = append(sig.Methods, ms)
		case head.kind == tokIdent && head.text == "oriented":
			if len(toks) < 5 || toks[1].kind != tokIdent || toks[2].text != "~" ||
				toks[3].kind != tokIdent || toks[4].kind != tokEOF {
				return nil, fmt.Errorf("line %d: usage: oriented <m1> ~ <m2>", lineno+1)
			}
			orients = append(orients, orientLine{m1: toks[1].text, m2: toks[3].text, line: lineno + 1})
		case head.kind == tokIdent && head.text == "pure":
			for _, tk := range toks[1:] {
				if tk.kind == tokIdent {
					pure = append(pure, tk.text)
				} else if tk.kind != tokEOF && tk.text != "," {
					return nil, fmt.Errorf("line %d: usage: pure <fn>[, <fn>...]", lineno+1)
				}
			}
		default:
			// m1 ~ m2 : cond
			if len(toks) < 5 || toks[0].kind != tokIdent || toks[1].text != "~" ||
				toks[2].kind != tokIdent || toks[3].text != ":" {
				return nil, fmt.Errorf("line %d: expected `m1 ~ m2: condition`", lineno+1)
			}
			pairs = append(pairs, pairLine{m1: toks[0].text, m2: toks[2].text, toks: toks[4:], line: lineno + 1})
		}
	}
	if sig == nil {
		return nil, fmt.Errorf("spectext: missing adt declaration")
	}
	spec := core.NewSpec(sig)
	spec.DeclarePure(pure...)
	firstAt := map[[2]string]int{}
	for _, pl := range pairs {
		if _, ok := sig.Method(pl.m1); !ok {
			return nil, fmt.Errorf("line %d: unknown method %q", pl.line, pl.m1)
		}
		if _, ok := sig.Method(pl.m2); !ok {
			return nil, fmt.Errorf("line %d: unknown method %q", pl.line, pl.m2)
		}
		if first, dup := firstAt[[2]string{pl.m1, pl.m2}]; dup {
			return nil, fmt.Errorf("line %d: duplicate condition for %s ~ %s (first defined at line %d)", pl.line, pl.m1, pl.m2, first)
		}
		firstAt[[2]string{pl.m1, pl.m2}] = pl.line
		p := &parser{toks: pl.toks, line: pl.line, sig: sig, m1: pl.m1, m2: pl.m2}
		expr, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if tk := p.peek(); tk.kind != tokEOF {
			return nil, fmt.Errorf("line %d: trailing input %q", pl.line, tk.text)
		}
		cond, err := exprToCond(expr)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", pl.line, err)
		}
		spec.Set(pl.m1, pl.m2, cond)
	}
	for _, o := range orients {
		if _, ok := sig.Method(o.m1); !ok {
			return nil, fmt.Errorf("line %d: unknown method %q", o.line, o.m1)
		}
		if _, ok := sig.Method(o.m2); !ok {
			return nil, fmt.Errorf("line %d: unknown method %q", o.line, o.m2)
		}
		spec.SetOriented(o.m1, o.m2)
	}
	return spec, nil
}

func parseMethod(toks []token, line int) (core.MethodSig, error) {
	var ms core.MethodSig
	if len(toks) < 3 || toks[0].kind != tokIdent || toks[1].text != "(" {
		return ms, fmt.Errorf("line %d: usage: method <name>(<params>) [ret]", line)
	}
	ms.Name = toks[0].text
	i := 2
	for toks[i].text != ")" {
		if toks[i].kind == tokIdent {
			ms.Params = append(ms.Params, toks[i].text)
			i++
			if toks[i].text == "," {
				i++
			}
		} else {
			return ms, fmt.Errorf("line %d: bad parameter list", line)
		}
	}
	i++
	if toks[i].kind == tokIdent && toks[i].text == "ret" {
		ms.HasRet = true
		i++
	}
	if toks[i].kind != tokEOF {
		return ms, fmt.Errorf("line %d: trailing input after method declaration", line)
	}
	return ms, nil
}

// --- expression parsing ----------------------------------------------------
//
// A unified precedence-climbing parser over a single expression grammar;
// the result is split into Cond vs Term afterwards:
//
//	1: ||        6: + -
//	2: &&        7: * /
//	3: ! (unary)
//	4: = != < > <= >=
type expr struct {
	// op: "" for leaf; otherwise the operator ("||", "&&", "!", "=", ...).
	op   string
	l, r *expr
	// leaf payloads
	term core.Term // non-nil for term leaves
	lit  *bool     // boolean literal (true/false), context-dependent
}

type parser struct {
	toks   []token
	i      int
	line   int
	sig    *core.ADTSig
	m1, m2 string
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(text string) error {
	if t := p.next(); t.text != text {
		return fmt.Errorf("line %d: expected %q, got %q", p.line, text, t.text)
	}
	return nil
}

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"=": 4, "!=": 4, "<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 6, "-": 6, "*": 7, "/": 7,
}

func (p *parser) parseExpr(minPrec int) (*expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek().text
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &expr{op: op, l: lhs, r: rhs}
	}
}

func (p *parser) parseUnary() (*expr, error) {
	if p.peek().text == "!" {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr{op: "!", l: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*expr, error) {
	t := p.next()
	switch {
	case t.text == "(":
		inner, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad number %q", p.line, t.text)
			}
			return &expr{term: core.Lit(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad number %q", p.line, t.text)
		}
		return &expr{term: core.Lit(n)}, nil
	case t.kind == tokIdent:
		switch t.text {
		case "true", "false":
			b := t.text == "true"
			return &expr{lit: &b}, nil
		case "r1":
			return &expr{term: core.Ret1()}, nil
		case "r2":
			return &expr{term: core.Ret2()}, nil
		case "v1", "v2":
			if err := p.expect("."); err != nil {
				return nil, err
			}
			name := p.next()
			if name.kind != tokIdent {
				return nil, fmt.Errorf("line %d: expected parameter after %s.", p.line, t.text)
			}
			side, method := core.First, p.m1
			if t.text == "v2" {
				side, method = core.Second, p.m2
			}
			idx, err := p.paramIndex(method, name.text)
			if err != nil {
				return nil, err
			}
			return &expr{term: core.ArgTerm{Side: side, Index: idx}}, nil
		}
		// Function application: fn@s1(...) / fn@s2(...).
		if p.peek().text == "@" {
			p.next()
			st := p.next()
			var side core.Side
			switch st.text {
			case "s1":
				side = core.First
			case "s2":
				side = core.Second
			default:
				return nil, fmt.Errorf("line %d: expected s1 or s2 after @, got %q", p.line, st.text)
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var args []core.Term
			for p.peek().text != ")" {
				a, err := p.parseExpr(5) // arithmetic and below
				if err != nil {
					return nil, err
				}
				at, err := exprToTerm(a)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", p.line, err)
				}
				args = append(args, at)
				if p.peek().text == "," {
					p.next()
				}
			}
			p.next() // ")"
			return &expr{term: core.FnTerm{Fn: t.text, State: side, Args: args}}, nil
		}
		return nil, fmt.Errorf("line %d: unexpected identifier %q (terms are v1.<p>, v2.<p>, r1, r2, literals, fn@s1(...))", p.line, t.text)
	default:
		return nil, fmt.Errorf("line %d: unexpected token %q", p.line, t.text)
	}
}

func (p *parser) paramIndex(method, param string) (int, error) {
	ms, _ := p.sig.Method(method)
	for i, name := range ms.Params {
		if name == param {
			return i, nil
		}
	}
	return 0, fmt.Errorf("line %d: method %s has no parameter %q", p.line, method, param)
}

// --- expr → Cond / Term -----------------------------------------------------

var cmpOps = map[string]core.CmpOp{
	"=": core.CmpEq, "!=": core.CmpNe,
	"<": core.CmpLt, ">": core.CmpGt, "<=": core.CmpLe, ">=": core.CmpGe,
}

func exprToCond(e *expr) (core.Cond, error) {
	switch e.op {
	case "||":
		l, err := exprToCond(e.l)
		if err != nil {
			return nil, err
		}
		r, err := exprToCond(e.r)
		if err != nil {
			return nil, err
		}
		return core.Or(l, r), nil
	case "&&":
		l, err := exprToCond(e.l)
		if err != nil {
			return nil, err
		}
		r, err := exprToCond(e.r)
		if err != nil {
			return nil, err
		}
		return core.And(l, r), nil
	case "!":
		l, err := exprToCond(e.l)
		if err != nil {
			return nil, err
		}
		return core.Not(l), nil
	case "":
		if e.lit != nil {
			if *e.lit {
				return core.True(), nil
			}
			return core.False(), nil
		}
		return nil, fmt.Errorf("a term is not a condition (compare it with = or !=)")
	default:
		if op, ok := cmpOps[e.op]; ok {
			l, err := exprToTerm(e.l)
			if err != nil {
				return nil, err
			}
			r, err := exprToTerm(e.r)
			if err != nil {
				return nil, err
			}
			return core.CmpCond{Op: op, L: l, R: r}, nil
		}
		// Arithmetic at condition level is a type error.
		return nil, fmt.Errorf("arithmetic expression used as a condition")
	}
}

var arithOps = map[string]core.ArithOp{
	"+": core.OpAdd, "-": core.OpSub, "*": core.OpMul, "/": core.OpDiv,
}

func exprToTerm(e *expr) (core.Term, error) {
	switch e.op {
	case "":
		if e.term != nil {
			return e.term, nil
		}
		// Boolean literal in term position (e.g. r1 = false).
		return core.Lit(*e.lit), nil
	default:
		if op, ok := arithOps[e.op]; ok {
			l, err := exprToTerm(e.l)
			if err != nil {
				return nil, err
			}
			r, err := exprToTerm(e.r)
			if err != nil {
				return nil, err
			}
			return core.ArithTerm{Op: op, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("boolean expression used as a term")
	}
}

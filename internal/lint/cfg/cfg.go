// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems on them. It is the
// flow-sensitive substrate of the gsulint rule that reasons about paths —
// lockbalance (mutex pairing on every path) — where the older rules only
// had to look at one node at a time.
//
// Like the rest of internal/lint, the package is standard library only:
// no golang.org/x/tools. The graph is deliberately modest — basic blocks
// of statement nodes with successor edges — but it models the full Go
// statement grammar: if/else, for (including range), switch and type
// switch with fallthrough, select, labeled break/continue, goto, and the
// terminating forms (return, panic, os.Exit, runtime.Goexit, log.Fatal).
//
// Defer is modeled by placement, not by an exit trampoline: a DeferStmt
// appears as an ordinary node at its push point. For the "must happen by
// function exit" facts the lint passes compute, a deferred call that is
// pushed on a path is guaranteed to run when that path leaves the
// function, so applying its effect at the push point is sound — and it
// keeps the conditional-defer and defer-in-loop cases honest, because a
// path that never reaches the DeferStmt never sees its effect.
//
// Paths that end in panic (or Goexit/Exit/Fatal) terminate without an
// edge to Exit: they never reach a return, so must-reach-return analyses
// correctly ignore them, and recovery/unwinding is the deferred calls'
// business, which the passes already credit at the push point.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal run of straight-line statements.
// Nodes holds the statements (and branch conditions) in execution order;
// the last node decides where control goes next via Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, 0 = entry).
	Index int
	// Kind is a short structural label ("entry", "exit", "if.then",
	// "for.cond", ...) used by tests and debug output.
	Kind string
	// Nodes are the block's AST nodes in execution order. Conditions of
	// if/for appear as bare ast.Expr nodes; everything else is an
	// ast.Stmt. A function body that can fall off its closing brace gets
	// a synthetic *ImplicitReturn as the final node before Exit.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
	// Preds are the corresponding reverse edges.
	Preds []*Block
}

// Graph is the control-flow graph of one function body. Entry is the
// unique start block; Exit is a virtual block reached by every return
// (explicit or implicit) and by nothing else.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// ImplicitReturn is the synthetic node marking control falling off the
// end of a function body (the implicit return of a void function). It
// implements ast.Node so dataflow passes can treat it exactly like an
// *ast.ReturnStmt when checking exit facts.
type ImplicitReturn struct {
	// Brace is the position of the body's closing brace.
	Brace token.Pos
}

// Pos implements ast.Node.
func (r *ImplicitReturn) Pos() token.Pos { return r.Brace }

// End implements ast.Node.
func (r *ImplicitReturn) End() token.Pos { return r.Brace + 1 }

// New builds the control-flow graph of one function body. The body is
// walked at statement granularity: expressions are not decomposed, and
// nested function literals are opaque (they are separate functions with
// separate graphs — build one per literal).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*Block),
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Control that reaches the closing brace returns implicitly.
	if b.cur != nil {
		b.append(&ImplicitReturn{Brace: body.Rbrace})
		b.edge(b.cur, b.g.Exit)
	}
	return b.g
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label      string // loop/switch/select label, "" if none
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block // nil while control is dead (just branched/returned)

	frames []*frame
	// labels maps label names to their target blocks, for goto and for
	// labeled statements (created on demand so forward gotos resolve).
	labels map[string]*Block
	// nextLabel is the pending label to attach to the next loop/switch/
	// select frame (set by LabeledStmt).
	nextLabel string
}

// newBlock appends a fresh block to the graph.
func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge links from → to (idempotent).
func (b *builder) edge(from, to *Block) {
	if from == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// append adds a node to the current block; dead control appends nowhere
// but revives into an unreachable block so later statements keep their
// structure (they simply have no predecessors).
func (b *builder) append(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// live returns the current block, reviving dead control into an
// unreachable block (same policy as append).
func (b *builder) live() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

// labelBlock returns (creating on demand) the block a label names.
func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// findBreak resolves a break target: the innermost frame, or the frame
// carrying the label.
func (b *builder) findBreak(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.breakTo
		}
	}
	return nil
}

// findContinue resolves a continue target (loops only).
func (b *builder) findContinue(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f.continueTo
		}
	}
	return nil
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement, leaving b.cur at the fall-through block
// (or nil when the statement never falls through).
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.EmptyStmt:
		// nothing

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.live(), lb)
		b.cur = lb
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.nextLabel = s.Label.Name
		}
		b.stmt(s.Stmt)

	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.findBreak(label); t != nil {
				b.edge(b.live(), t)
			}
			b.cur = nil
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.findContinue(label); t != nil {
				b.edge(b.live(), t)
			}
			b.cur = nil
		case token.GOTO:
			b.edge(b.live(), b.labelBlock(s.Label.Name))
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by the switch builder (it inspects the clause tail);
			// reaching here means a stray fallthrough — treat as no-op.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Cond)
		condB := b.live()
		thenB := b.newBlock("if.then")
		b.edge(condB, thenB)
		var elseB *Block
		if s.Else != nil {
			elseB = b.newBlock("if.else")
			b.edge(condB, elseB)
		}
		afterB := b.newBlock("if.after")
		if s.Else == nil {
			b.edge(condB, afterB)
		}
		b.cur = thenB
		b.stmt(s.Body)
		b.edge(b.cur, afterB)
		if elseB != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, afterB)
		}
		b.cur = afterB

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		condB := b.newBlock("for.cond")
		b.edge(b.live(), condB)
		afterB := b.newBlock("for.after")
		bodyB := b.newBlock("for.body")
		b.cur = condB
		if s.Cond != nil {
			b.append(s.Cond)
			b.edge(condB, afterB)
		}
		b.edge(condB, bodyB)
		continueTo := condB
		var postB *Block
		if s.Post != nil {
			postB = b.newBlock("for.post")
			postB.Nodes = append(postB.Nodes, s.Post)
			b.edge(postB, condB)
			continueTo = postB
		}
		b.frames = append(b.frames, &frame{label: label, breakTo: afterB, continueTo: continueTo})
		b.cur = bodyB
		b.stmt(s.Body)
		b.edge(b.cur, continueTo)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = afterB

	case *ast.RangeStmt:
		label := b.takeLabel()
		headB := b.newBlock("range.head")
		b.edge(b.live(), headB)
		// Only the ranged expression is a node: appending the whole
		// RangeStmt would embed the body's statements in the head and
		// double-count their effects. Key/value per-iteration assignment
		// is not modeled.
		headB.Nodes = append(headB.Nodes, s.X)
		bodyB := b.newBlock("range.body")
		afterB := b.newBlock("range.after")
		b.edge(headB, bodyB)
		b.edge(headB, afterB)
		b.frames = append(b.frames, &frame{label: label, breakTo: afterB, continueTo: headB})
		b.cur = bodyB
		b.stmt(s.Body)
		b.edge(b.cur, headB)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = afterB

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		b.switchClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		b.switchClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		headB := b.live()
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no successors.
			b.cur = nil
			return
		}
		afterB := b.newBlock("select.after")
		b.frames = append(b.frames, &frame{label: label, breakTo: afterB})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			clauseB := b.newBlock("select.clause")
			b.edge(headB, clauseB)
			b.cur = clauseB
			if cc.Comm != nil {
				b.append(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, afterB)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = afterB

	case *ast.ExprStmt:
		b.append(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && terminatesFlow(call) {
			b.cur = nil
		}

	case *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.AssignStmt, *ast.DeclStmt:
		b.append(s)

	default:
		// Future statement kinds: keep them visible to the dataflow even
		// if we do not model their control transfer.
		b.append(s)
	}
}

// switchClauses builds the clause blocks of a (type) switch. clauseInfo
// extracts a clause's body and whether it is the default clause.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, clauseInfo func(ast.Stmt) ([]ast.Stmt, bool)) {
	headB := b.live()
	afterB := b.newBlock("switch.after")
	b.frames = append(b.frames, &frame{label: label, breakTo: afterB})

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.edge(headB, blocks[i])
		if _, isDefault := clauseInfo(c); isDefault {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(headB, afterB)
	}
	for i, c := range clauses {
		body, _ := clauseInfo(c)
		// A trailing fallthrough transfers into the next clause's body.
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = i+1 < len(blocks)
				body = body[:n-1]
			}
		}
		b.cur = blocks[i]
		b.stmtList(body)
		if fallsThrough {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, afterB)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = afterB
}

// terminatesFlow reports whether a call statement never returns to the
// caller, judged syntactically: the builtin panic, runtime.Goexit,
// os.Exit, and the log.Fatal family. (A shadowed `panic` would be
// misjudged; the repo's libpanic rule keeps panics rare enough not to
// care.)
func terminatesFlow(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "runtime.Goexit", "os.Exit":
			return true
		case "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// String renders the graph compactly for tests and debugging: one line
// per block with its kind, node count and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		succs := make([]string, len(blk.Succs))
		for i, s := range blk.Succs {
			succs[i] = fmt.Sprint(s.Index)
		}
		fmt.Fprintf(&sb, "b%d[%s] nodes=%d -> {%s}\n", blk.Index, blk.Kind, len(blk.Nodes), strings.Join(succs, ","))
	}
	return sb.String()
}

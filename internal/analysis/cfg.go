package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// This file builds per-function control-flow graphs — the foundation the
// interprocedural analyzers (lock-order, chan-leak) walk instead of
// re-deriving branch structure from the AST the way the older linear
// analyzers do.
//
// The graph is a conventional basic-block CFG over go/ast statements:
//
//   - Block nodes hold simple statements and the control expressions of the
//     branches that end them (an if's condition, a for's condition, a
//     switch's tag, a select's comm statements). Nested statement bodies are
//     never stored in a block — only their entry edges are — so walking a
//     block's Nodes visits each statement exactly once across the whole
//     graph. Function literals stay embedded in their statement node; they
//     are separate functions with their own CFGs (see callgraph.go).
//   - Every function has one Entry and one synthetic Exit. return, panic and
//     the implicit fall-off-the-end all edge to Exit.
//   - defer statements appear in their block (registration order matters for
//     some analyses) and are additionally collected on CFG.Defers, modeling
//     their bodies running at Exit.
//   - break/continue/goto (labeled or not) and fallthrough become real
//     edges, so loop and switch shapes are faithful.

// Block is one basic block: a maximal straight-line run of statements with
// branch-free control flow, plus the edges leaving it.
type Block struct {
	// Index is the block's position in CFG.Blocks (stable, deterministic).
	Index int
	// Kind labels what created the block ("entry", "exit", "body",
	// "if.then", "if.else", "for.head", "for.body", "range.head",
	// "switch.case", "select.comm", "join") — for tests and debugging.
	Kind string
	// Nodes are the block's statements and control expressions in execution
	// order. Entries are simple statements (no nested statement bodies
	// except inside function literals) or bare expressions.
	Nodes []ast.Node
	// Succs are the blocks control may transfer to next.
	Succs []*Block
	// Preds are the inverse edges, filled in after construction.
	Preds []*Block
}

func (b *Block) addSucc(s *Block) {
	if s == nil {
		return
	}
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// CFG is one function body's control-flow graph.
type CFG struct {
	// Blocks lists every block; Blocks[0] is Entry and Blocks[1] is Exit.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers collects the body's defer statements in registration order;
	// their calls conceptually run at Exit.
	Defers []*ast.DeferStmt
	// Returns collects the body's return statements (for naming exit paths
	// in diagnostics). A function can also fall off its closing brace; End
	// positions that.
	Returns []*ast.ReturnStmt
	// End is the position of the body's closing brace.
	End token.Pos
}

// cfgBuilder carries the under-construction graph and the break/continue/
// goto resolution state.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block statements are being appended to; nil while the
	// current position is unreachable (just after return/break/...).
	cur *Block
	// breakTargets / continueTargets stack one entry per enclosing
	// breakable/continuable statement, innermost last.
	breakTargets    []cfgTarget
	continueTargets []cfgTarget
	// labelBlocks maps a label name to the entry block of its statement,
	// for goto; gotos to labels seen later are patched at the end.
	labelBlocks  map[string]*Block
	pendingGotos []pendingGoto
	// pendingLabel is set between seeing a LabeledStmt and building its
	// statement, so loops know the label their break/continue answer to.
	pendingLabel string
}

type cfgTarget struct {
	label string
	block *Block
	// pushedCont records whether this break-stack entry pushed a matching
	// continue-stack entry (loops do; switch/select don't), so popLoop
	// unwinds both stacks in step.
	pushedCont bool
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:         &CFG{End: body.Rbrace},
		labelBlocks: map[string]*Block{},
	}
	entry := b.newBlock("entry")
	b.cfg.Entry = entry
	exit := b.newBlock("exit")
	b.cfg.Exit = exit
	b.cur = entry
	b.stmtList(body.List)
	if b.cur != nil { // fell off the end
		b.cur.addSucc(exit)
	}
	for _, g := range b.pendingGotos {
		if target, ok := b.labelBlocks[g.label]; ok {
			g.from.addSucc(target)
		} else {
			g.from.addSucc(exit) // label outside the analyzed body; be safe
		}
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock begins a new block and makes it current, linking it from the
// previous current block when that one is live.
func (b *cfgBuilder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		b.cur.addSucc(blk)
	}
	b.cur = blk
	return blk
}

// emit appends a node to the current block, creating one if control just
// became reachable again (dead code after return still gets blocks so its
// statements are visible to analyzers, just unreachable ones).
func (b *cfgBuilder) emit(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			if b.cur != nil {
				b.cur.addSucc(b.cfg.Exit)
			}
			b.cur = nil
		}

	case *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt, *ast.EmptyStmt:
		b.emit(stmt)

	case *ast.GoStmt:
		b.emit(s)

	case *ast.DeferStmt:
		b.emit(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.ReturnStmt:
		b.emit(s)
		b.cfg.Returns = append(b.cfg.Returns, s)
		if b.cur != nil {
			b.cur.addSucc(b.cfg.Exit)
		}
		b.cur = nil

	case *ast.LabeledStmt:
		// The labeled statement gets its own entry block so goto/labeled
		// break/continue have a target.
		entry := b.startBlock("label." + s.Label.Name)
		b.labelBlocks[s.Label.Name] = entry
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.emit(s)
		from := b.cur
		b.cur = nil
		if from == nil {
			return
		}
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breakTargets, label); t != nil {
				from.addSucc(t)
			} else {
				from.addSucc(b.cfg.Exit)
			}
		case token.CONTINUE:
			if t := findTarget(b.continueTargets, label); t != nil {
				from.addSucc(t)
			} else {
				from.addSucc(b.cfg.Exit)
			}
		case token.GOTO:
			if t, ok := b.labelBlocks[label]; ok {
				from.addSucc(t)
			} else {
				b.pendingGotos = append(b.pendingGotos, pendingGoto{from: from, label: label})
			}
		case token.FALLTHROUGH:
			// Handled by the enclosing switch builder: the clause body's
			// final block is linked to the next clause there. Restore cur so
			// switchStmt sees a live end-of-clause block.
			b.cur = from
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(s.Cond)
		cond := b.cur
		if cond == nil {
			cond = b.startBlock("dead")
		}
		join := b.newBlock("join")

		b.cur = nil
		thenBlk := b.newBlock("if.then")
		cond.addSucc(thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(join)
		}

		if s.Else != nil {
			elseBlk := b.newBlock("if.else")
			cond.addSucc(elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.cur.addSucc(join)
			}
		} else {
			cond.addSucc(join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock("for.head")
		if s.Cond != nil {
			b.emit(s.Cond)
		}
		after := b.newBlock("for.after")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			post.addSucc(head)
		}
		continueTo := head
		if post != nil {
			continueTo = post
		}
		b.pushLoop(label, after, continueTo)

		body := b.newBlock("for.body")
		head.addSucc(body)
		if s.Cond != nil {
			head.addSucc(after) // condition may be false
		}
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			if post != nil {
				b.cur.addSucc(post)
			} else {
				b.cur.addSucc(head)
			}
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock("range.head")
		b.emit(s.X)
		after := b.newBlock("range.after")
		head.addSucc(after) // empty iteration space
		b.pushLoop(label, after, head)

		body := b.newBlock("range.body")
		head.addSucc(body)
		b.cur = body
		// The per-iteration key/value assignment is part of the head
		// conceptually; analyzers needing it can look at s.Key/s.Value via
		// the emitted s.X's parent. Keep the body clean.
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(head)
		}
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.switchBody(label, s.Body, func(c ast.Stmt) []ast.Node {
			clause := c.(*ast.CaseClause)
			nodes := make([]ast.Node, 0, len(clause.List))
			for _, e := range clause.List {
				nodes = append(nodes, e)
			}
			return nodes
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(s.Assign)
		b.switchBody(label, s.Body, func(c ast.Stmt) []ast.Node { return nil })

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		if sel == nil {
			sel = b.startBlock("dead")
		}
		after := b.newBlock("select.after")
		b.pushLoop(label, after, nil) // break inside select targets after
		hasDefault := false
		for _, c := range s.Body.List {
			clause := c.(*ast.CommClause)
			comm := b.newBlock("select.comm")
			sel.addSucc(comm)
			b.cur = comm
			if clause.Comm != nil {
				b.stmt(clause.Comm)
			} else {
				hasDefault = true
			}
			b.stmtList(clause.Body)
			if b.cur != nil {
				b.cur.addSucc(after)
			}
		}
		_ = hasDefault // a select with no cases blocks forever; keep after unreachable then
		if len(s.Body.List) == 0 {
			// select{} blocks forever: model as an edge to exit so the
			// function's paths stay complete.
			sel.addSucc(b.cfg.Exit)
		}
		b.popLoop()
		b.cur = after

	default:
		// Unknown statement kinds (none today) are treated as simple.
		b.emit(stmt)
	}
}

// switchBody builds the clause blocks of a (type)switch: every clause entry
// hangs off the current block, fallthrough chains clause bodies, and a
// missing default adds a direct edge past the switch.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, clauseNodes func(ast.Stmt) []ast.Node) {
	swtch := b.cur
	if swtch == nil {
		swtch = b.startBlock("dead")
	}
	after := b.newBlock("switch.after")
	b.pushLoop(label, after, nil) // break inside the switch targets after

	hasDefault := false
	type builtClause struct {
		entry               *Block
		endsWithFallthrough bool
		last                *Block
	}
	clauses := make([]builtClause, 0, len(body.List))
	for _, c := range body.List {
		clause := c.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		entry := b.newBlock("switch.case")
		for _, n := range clauseNodes(c) {
			entry.Nodes = append(entry.Nodes, n)
		}
		swtch.addSucc(entry)
		b.cur = entry
		ft := false
		if n := len(clause.Body); n > 0 {
			if br, ok := clause.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
			}
		}
		b.stmtList(clause.Body)
		last := b.cur
		if last != nil && !ft {
			last.addSucc(after)
		}
		clauses = append(clauses, builtClause{entry: entry, endsWithFallthrough: ft, last: last})
		b.cur = nil
	}
	for i, c := range clauses {
		if c.endsWithFallthrough && c.last != nil && i+1 < len(clauses) {
			c.last.addSucc(clauses[i+1].entry)
		}
	}
	if !hasDefault {
		swtch.addSucc(after)
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	entry := cfgTarget{label: label, block: brk, pushedCont: cont != nil}
	b.breakTargets = append(b.breakTargets, entry)
	if cont != nil {
		b.continueTargets = append(b.continueTargets, cfgTarget{label: label, block: cont})
	}
}

func (b *cfgBuilder) popLoop() {
	top := b.breakTargets[len(b.breakTargets)-1]
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if top.pushedCont {
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
	}
}

// takeLabel consumes the pending label set by an enclosing LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findTarget resolves a break/continue target: the innermost entry when the
// label is empty, the labeled entry otherwise.
func findTarget(stack []cfgTarget, label string) *Block {
	if label == "" {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// isPanicCall reports whether e is a direct call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// ReachableFrom reports whether to is reachable from from along CFG edges,
// optionally refusing to travel through blocks for which barred returns
// true (the from and to blocks themselves are never barred).
func (c *CFG) ReachableFrom(from, to *Block, barred func(*Block) bool) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(c.Blocks))
	stack := []*Block{from}
	seen[from.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if s == to {
				return true
			}
			if seen[s.Index] {
				continue
			}
			if barred != nil && barred(s) {
				continue
			}
			seen[s.Index] = true
			stack = append(stack, s)
		}
	}
	return false
}

// String renders the graph compactly for tests: "0(entry)->2,3 ...".
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "%d(%s)->", blk.Index, blk.Kind)
		for i, s := range blk.Succs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

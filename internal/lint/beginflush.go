package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// BeginFlush checks the split-phase pairing contract on the exchangers
// (the dgraph round interface and both of its engines): every Begin*
// round a function opens must be closed
// by a matching Flush* (or the exchanger's Close) in the same
// function, and — when the pipeline depth is set from a compile-time
// constant in the same function — never more than that many rounds may
// be outstanding at once. A Begin with no Flush leaves the drainer
// holding a round forever; over-filling the pipeline blocks the poster
// in post() with no one to drain it.
var BeginFlush = &Analyzer{
	Name: "beginflush",
	Doc:  "every Begin* on an exchanger needs a matching Flush*/Close, at most PipeDepth rounds outstanding",
	Run:  runBeginFlush,
}

func isBeginName(name string) bool {
	return strings.HasPrefix(name, "Begin")
}

// isFlushName covers everything that retires outstanding rounds: the
// Flush family and Close (which drains).
func isFlushName(name string) bool {
	return strings.HasPrefix(name, "Flush") || name == "Close"
}

// exCall is one Begin*/Flush*-family call on an exchanger, in
// source order.
type exCall struct {
	pos   token.Pos
	recv  string
	name  string
	begin bool
}

func runBeginFlush(pass *Pass) {
	// The exchanger's own methods implement the protocol; the pairing
	// contract binds callers.
	if strings.TrimSuffix(pass.Pkg.Path(), "-test") == dgraphPath {
		return
	}
	for _, unit := range funcUnits(pass.Files) {
		checkBeginFlush(pass, unit.decl)
	}
}

func checkBeginFlush(pass *Pass, fd *ast.FuncDecl) {
	var calls []exCall
	escapes := map[string]bool{} // receiver strings passed out of the function
	depth := map[string]int{}    // receiver -> literal SetPipeDepth bound

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c, ok := calleeOf(pass.Info, call)
		if ok && c.pkg == dgraphPath && isExchanger(c.recv) {
			recv := recvString(call)
			switch {
			case isBeginName(c.name):
				calls = append(calls, exCall{call.Pos(), recv, c.name, true})
			case isFlushName(c.name):
				calls = append(calls, exCall{call.Pos(), recv, c.name, false})
			}
			return true
		}
		if ok && c.pkg == dgraphPath && c.recv == "Graph" && c.name == "SetPipeDepth" && len(call.Args) == 1 {
			if lit, okLit := ast.Unparen(call.Args[0]).(*ast.BasicLit); okLit && lit.Kind == token.INT {
				if v, err := strconv.Atoi(lit.Value); err == nil {
					// The graph's depth governs exchangers it vends;
					// record under the graph receiver and apply to any
					// exchanger rooted at it below.
					depth[recvString(call)] = v
				}
			}
			return true
		}
		// Any other call taking an exchanger-looking argument means the
		// pairing may complete elsewhere: disable Rule A for that
		// receiver.
		for _, a := range call.Args {
			if t := pass.Info.TypeOf(a); t != nil && isExchangerValue(t) {
				escapes[exprString(a)] = true
			}
		}
		return true
	})
	if len(calls) == 0 {
		return
	}

	// Returning the exchanger also moves the pairing obligation to the
	// caller.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if t := pass.Info.TypeOf(r); t != nil && isExchangerValue(t) {
				escapes[exprString(r)] = true
			}
		}
		return true
	})

	// Rule A: a receiver with Begin* calls but zero Flush*/Close calls
	// anywhere in the function (and which never escapes) leaves its
	// rounds permanently outstanding. Only simple receivers (locals and
	// parameters) are held to same-function pairing: an exchanger
	// reached through a field (s.ex) belongs to a longer-lived object
	// whose methods legitimately split Begin and Flush across calls.
	hasFlush := map[string]bool{}
	for _, c := range calls {
		if !c.begin {
			hasFlush[c.recv] = true
		}
	}
	reportedA := map[string]bool{}
	for _, c := range calls {
		if c.begin && !hasFlush[c.recv] && !escapes[c.recv] && !reportedA[c.recv] &&
			!strings.Contains(c.recv, ".") {
			reportedA[c.recv] = true
			pass.Reportf(c.pos,
				"%s.%s has no matching Flush*/Close on %s in this function: the round stays outstanding and the drainer never releases it",
				c.recv, c.name, c.recv)
		}
	}

	// Rule B: with a compile-time SetPipeDepth bound in scope, a linear
	// scan in source order must never see more than that many rounds
	// outstanding on one receiver. The bound recorded for a graph g
	// applies to exchangers spelled as a selection rooted at g or to
	// the sole exchanger of the function when only one graph bound
	// exists.
	if len(depth) == 0 {
		return
	}
	boundFor := func(recv string) (int, bool) {
		for g, d := range depth {
			if recv == g || strings.HasPrefix(recv, g+".") {
				return d, true
			}
		}
		if len(depth) == 1 && len(uniqueRecvs(calls)) == 1 {
			for _, d := range depth {
				return d, true
			}
		}
		return 0, false
	}
	outstanding := map[string]int{}
	reportedB := map[string]bool{}
	for _, c := range calls {
		if c.begin {
			outstanding[c.recv]++
			if b, ok := boundFor(c.recv); ok && outstanding[c.recv] > b && !reportedB[c.recv] {
				reportedB[c.recv] = true
				pass.Reportf(c.pos,
					"%d rounds outstanding on %s exceeds the pipeline depth %d set by SetPipeDepth: post() will block with no drainer progress",
					outstanding[c.recv], c.recv, b)
			}
		} else if outstanding[c.recv] > 0 {
			outstanding[c.recv]--
		}
	}
}

func uniqueRecvs(calls []exCall) map[string]bool {
	m := map[string]bool{}
	for _, c := range calls {
		m[c.recv] = true
	}
	return m
}

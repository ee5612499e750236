package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags statements that call a Close/Flush/Sync/Write/Encode-style
// method and silently discard its error. A dropped Close on the index
// writer means a truncated shard file that only fails at load time; a
// dropped Write or Flush on a node connection means a coordinator waits on
// a frame that never arrives. Deferred calls are exempt (idiomatic best-effort cleanup on
// read paths), as is an explicit `_ =` assignment, which documents intent.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "silently discarded errors from Close/Flush/Sync/Write/Encode calls hide truncated files and broken wires",
	Run:  runErrDrop,
}

// errDropMethods are the method names whose dropped error we care about.
var errDropMethods = map[string]bool{
	"Close":       true,
	"Flush":       true,
	"Sync":        true,
	"Write":       true,
	"WriteString": true,
	"WriteTo":     true,
	"Encode":      true,
}

func runErrDrop(p *Pass) {
	for _, f := range p.Files {
		if p.SkipFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || !errDropMethods[fn.Name()] {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !returnsError(sig) {
				return true
			}
			// Judge the exemption on the call site's static receiver type:
			// a hash.Hash64 stays exempt even though its Write method is
			// declared on the embedded io.Writer.
			recv := sig.Recv().Type()
			if selInfo := p.Info.Selections[sel]; selInfo != nil {
				recv = selInfo.Recv()
			}
			if exemptErrDropReceiver(recv) {
				return true
			}
			p.Reportf(stmt.Pos(), "error from %s.%s is silently dropped; handle it, assign to _ explicitly, or suppress with //lint:ignore errdrop <reason>", receiverName(recv), fn.Name())
			return true
		})
	}
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := types.Unalias(res.At(i).Type()).(*types.Named); ok {
			if named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return true
			}
		}
	}
	return false
}

// exemptErrDropReceiver excludes receivers whose listed methods are
// documented never to fail: bytes.Buffer, strings.Builder, and the
// hash-package digests (their Write always returns nil).
func exemptErrDropReceiver(t types.Type) bool {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case path == "bytes" && name == "Buffer":
		return true
	case path == "strings" && name == "Builder":
		return true
	case path == "hash" || strings.HasPrefix(path, "hash/"):
		return true
	}
	return false
}

func receiverName(t types.Type) string {
	s := types.TypeString(t, func(p *types.Package) string { return p.Name() })
	return strings.TrimPrefix(s, "*")
}

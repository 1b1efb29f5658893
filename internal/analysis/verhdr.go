package analysis

// verhdr machine-checks the MVCC version-header discipline: every versioned
// heap record starts with storage.VerHdrLen bytes of xmin/xmax stamps, and
// those bytes are visibility decisions — they may only be written through
// the stamp APIs, never by raw byte manipulation. Two rules:
//
//  1. storage.AppendVersion and storage.WithXmax (the codec's writers) may
//     only be called from package mvcc (and storage itself): xmin must be
//     the creating transaction and xmax must transition 0 -> deleter exactly
//     once, which is what mvcc.NewVersion/Supersede encode. Everyone else
//     calling the codec directly is one refactor away from stamping a wrong
//     id.
//  2. No raw write into the first VerHdrLen bytes of a record obtained from
//     the version codec or the heap: no index assignment at a constant
//     offset below VerHdrLen, no copy over the record's front, no
//     binary.PutUintXX into the header region. Record provenance is tracked
//     per function (results of AppendVersion/WithXmax/NewVersion/Supersede/
//     Heap.Get, operands of VersionOf/PayloadOf/WithXmax, and aliases of
//     either).
//
// Package storage is exempt from both rules — it owns the codec.

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// VerHdr reports version-header writes that bypass the stamp APIs.
var VerHdr = &Analyzer{
	Name: "verhdr",
	Doc: "check that MVCC version headers are only written through the stamp APIs: " +
		"storage.AppendVersion/WithXmax only from internal/mvcc, and no raw copy/index/PutUint " +
		"into the first VerHdrLen bytes of a versioned record",
	Run: runVerHdr,
}

// verHdrLen mirrors storage.VerHdrLen; the analyzer cannot import the real
// package (it must type-check stubs too), so the codec width is pinned here.
const verHdrLen = 16

func runVerHdr(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), "storage") {
		return nil // storage owns the codec
	}
	inMvcc := pathHasSuffix(pass.Pkg.Path(), "mvcc")
	for _, f := range pass.Files {
		if !inMvcc {
			reportStampCalls(pass, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkRawHeaderWrites(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				checkRawHeaderWrites(pass, n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// reportStampCalls flags direct codec-writer calls outside mvcc.
func reportStampCalls(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, fn := range [...]string{"AppendVersion", "WithXmax"} {
			if isPkgFuncCall(pass.TypesInfo, call, "storage", fn) {
				pass.Reportf(call.Pos(),
					"storage.%s called outside internal/mvcc: version stamps must go through mvcc.NewVersion/Supersede", fn)
			}
		}
		return true
	})
}

// checkRawHeaderWrites flags raw writes into the header region of tainted
// records within one function body.
func checkRawHeaderWrites(pass *Pass, body *ast.BlockStmt) {
	tainted := collectVersionedRecords(pass, body)
	if len(tainted) == 0 {
		return
	}
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures are their own scope
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				ix, ok := l.(*ast.IndexExpr)
				if !ok {
					continue
				}
				v := exprVar(info, ix.X)
				if v == nil || !tainted[v] {
					continue
				}
				if off, known := constIntValue(info, ix.Index); known && off < verHdrLen {
					pass.Reportf(l.Pos(),
						"raw write into the version header of %q (offset %d < VerHdrLen): stamp xmin/xmax through the mvcc API", v.Name(), off)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if v, ok := headerRegionOf(info, tainted, n.Args[0]); ok {
					pass.Reportf(n.Pos(),
						"copy overwrites the version header of %q: stamp xmin/xmax through the mvcc API", v.Name())
				}
				return true
			}
			for _, m := range [...]string{"PutUint16", "PutUint32", "PutUint64"} {
				if isMethodCall(info, n, "encoding/binary", "littleEndian", m) ||
					isMethodCall(info, n, "encoding/binary", "bigEndian", m) {
					if len(n.Args) >= 1 {
						if v, ok := headerRegionOf(info, tainted, n.Args[0]); ok {
							pass.Reportf(n.Pos(),
								"binary.%s writes into the version header of %q: stamp xmin/xmax through the mvcc API", m, v.Name())
						}
					}
				}
			}
		}
		return true
	})
}

// headerRegionOf reports whether e denotes bytes of a tainted record that
// include part of its version header: the record itself, or a slice of it
// whose low bound is absent or a constant below VerHdrLen.
func headerRegionOf(info *types.Info, tainted map[*types.Var]bool, e ast.Expr) (*types.Var, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := exprVar(info, e)
		if v != nil && tainted[v] {
			return v, true
		}
	case *ast.SliceExpr:
		v := exprVar(info, e.X)
		if v == nil || !tainted[v] {
			return nil, false
		}
		if e.Low == nil {
			return v, true
		}
		if off, known := constIntValue(info, e.Low); known && off < verHdrLen {
			return v, true
		}
	}
	return nil, false
}

// collectVersionedRecords runs the per-function provenance pass: variables
// holding record bytes whose front is a version header.
func collectVersionedRecords(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	info := pass.TypesInfo
	tainted := make(map[*types.Var]bool)

	// isSource reports whether call yields (or operates on) a versioned
	// record; when its operand is the record, that variable taints too.
	mark := func(e ast.Expr) {
		if v := exprVar(info, e); v != nil {
			tainted[v] = true
		}
	}
	for changed := true; changed; {
		changed = false
		before := len(tainted)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// Codec readers and writers: their record operand is versioned.
				for _, fn := range [...]string{"VersionOf", "PayloadOf", "WithXmax"} {
					if isPkgFuncCall(info, n, "storage", fn) && len(n.Args) > 0 {
						mark(n.Args[0])
					}
				}
				if isPkgFuncCall(info, n, "mvcc", "Supersede") && len(n.Args) > 0 {
					mark(n.Args[0])
				}
			case *ast.AssignStmt:
				if len(n.Rhs) == 0 {
					return true
				}
				rhs := ast.Unparen(n.Rhs[0])
				yields := false
				switch r := rhs.(type) {
				case *ast.CallExpr:
					yields = isPkgFuncCall(info, r, "storage", "AppendVersion") ||
						isPkgFuncCall(info, r, "storage", "WithXmax") ||
						isPkgFuncCall(info, r, "mvcc", "NewVersion") ||
						isPkgFuncCall(info, r, "mvcc", "Supersede") ||
						isMethodCall(info, r, "storage", "Heap", "Get")
				case *ast.Ident:
					v := exprVar(info, r)
					yields = v != nil && tainted[v]
				case *ast.SliceExpr:
					// An alias that still starts inside the header region.
					if v := exprVar(info, r.X); v != nil && tainted[v] {
						if r.Low == nil {
							yields = true
						} else if off, known := constIntValue(info, r.Low); known && off < verHdrLen {
							yields = true
						}
					}
				}
				if yields && len(n.Lhs) > 0 {
					mark(n.Lhs[0])
				}
			}
			return true
		})
		changed = len(tainted) != before
	}
	return tainted
}

// exprVar resolves an identifier expression to its variable object.
func exprVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// constIntValue evaluates e as a constant integer.
func constIntValue(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

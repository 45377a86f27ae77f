package lint

import (
	"go/ast"

	"drugtree/internal/lint/analysis"
)

// vfsSeamPkgs are the packages whose every byte of file I/O must flow
// through the internal/vfs seam: the durable store (WAL, snapshot), the
// only package that persists anything. A raw os.* call there is a
// persistence path the crash-point matrix (store.TestTortureMatrix) cannot see — a
// fault the FaultFS can never inject and a durability bug the matrix
// can never catch.
var vfsSeamPkgs = []string{"store"}

// fsForbiddenFuncs are the os package's filesystem entry points. Note
// what is NOT here: error predicates (os.IsNotExist), open-flag and
// permission constants (os.O_CREATE, os.FileMode), and process-level
// calls (os.Getenv) are all fine — the seam replaces I/O, not the
// standard library's vocabulary.
var fsForbiddenFuncs = []string{
	"Open", "OpenFile", "Create", "CreateTemp",
	"ReadFile", "WriteFile",
	"Remove", "RemoveAll", "Rename",
	"Mkdir", "MkdirAll", "MkdirTemp",
	"ReadDir", "Stat", "Lstat",
	"Truncate", "Chmod", "Chtimes", "Link", "Symlink",
}

// FSCheck enforces the vfs-seam invariant: packages on a persistence
// path do file I/O through an injected vfs.FS, never raw os.* calls,
// so every write, sync, and rename is visible to deterministic fault
// injection. Purely syntactic, like clockcheck: the fixture and the
// production tree are matched on call shape (os.<Func>(...)),
// honoring import aliasing.
var FSCheck = &analysis.Analyzer{
	Name: "fscheck",
	Doc: "forbid raw os file I/O (os.Open, os.Rename, ...) in store; " +
		"route it through the vfs.FS seam so crash-point fault injection covers every persistence path",
	Run: eachPackage(runFSCheck),
}

func runFSCheck(pass *analysis.Pass) {
	if !anySegment(pass.PkgPath, vfsSeamPkgs) {
		return
	}
	for _, f := range pass.Files {
		if _, ok := analysis.ImportName(f, "os"); !ok {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := analysis.IsPkgCall(f, call, "os", fsForbiddenFuncs...); ok {
				pass.Reportf(call.Pos(),
					"os.%s bypasses the vfs seam in %s; do file I/O through the injected vfs.FS so FaultFS crash points cover it (see internal/vfs)",
					fn, pass.PkgPath)
			}
			return true
		})
	}
}

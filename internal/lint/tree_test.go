package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drugtree/internal/lint/loader"
)

// TestTreeIsClean is the zero-findings gate: the same check `make
// lint` runs, wired into `go test` so the invariant suite cannot
// silently rot between lint runs. If this test fails, either fix the
// violation or (for a reviewed, justified exception) add a
// //lint:ignore with a reason and raise the Budget entry.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide lint skipped in -short mode")
	}
	root := moduleRootT(t)
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	res := Check(pkgs)
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	for _, e := range res.BudgetErrors {
		t.Errorf("%s", e)
	}
}

func moduleRootT(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestExportsHaveProductionCallers is the dead-surface gate: every
// exported function or method declared in non-test code of this module
// or of the repository benchmark's module under bench/ must have its
// name referenced by some non-test file of either module, outside its
// own body. A declaration only tests reach is library surface nothing
// runs; delete it (and the tests that check only it), or, when a test
// genuinely needs it as an oracle or it belongs to an interface or a
// frozen API, record it in exportAllowlist with the reason. The check
// is by name, so it errs towards passing: any reference to the name
// counts, whichever type it belongs to. The lint suite itself is out
// of scope: its exported API serves its own tests and cmd/drugtree-lint.
func TestExportsHaveProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide export scan skipped in -short mode")
	}
	root := moduleRootT(t)
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	benchPkgs, err := loader.Load(filepath.Join(root, "bench"), "./...")
	if err != nil {
		t.Fatalf("loading bench: %v", err)
	}
	pkgs = append(pkgs, benchPkgs...)

	type decl struct{ key, pos string }
	var decls []decl
	refs := map[string]int{}
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, "drugtree"), "/")
		scoped := !(rel == "internal/lint" || strings.HasPrefix(rel, "internal/lint/") || rel == "cmd/drugtree-lint")
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if scoped && fd.Name.IsExported() {
					key := rel + "." + fd.Name.Name
					if fd.Recv != nil {
						key = rel + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					decls = append(decls, decl{key, pkg.Fset.Position(fd.Pos()).String()})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// Count references in the signature and the body,
					// but not the declared name, and not the body's
					// own recursive calls.
					countIdents(n.Type, refs, "")
					if n.Recv != nil {
						countIdents(n.Recv, refs, "")
					}
					if n.Body != nil {
						countIdents(n.Body, refs, n.Name.Name)
					}
					return false
				case *ast.Ident:
					refs[n.Name]++
				}
				return true
			})
		}
	}

	used := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if refs[name] > 0 {
			continue
		}
		if _, ok := exportAllowlist[d.key]; ok {
			used[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported but no non-test code references it", d.pos, d.key)
	}
	for key := range exportAllowlist {
		if !used[key] {
			t.Errorf("exportAllowlist entry %s names no unreferenced declaration; drop it", key)
		}
	}
}

// countIdents adds every identifier under n to refs, except those
// spelled skip.
func countIdents(n ast.Node, refs map[string]int, skip string) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != skip {
			refs[id.Name]++
		}
		return true
	})
}

// recvTypeName is the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// exportAllowlist names the exported declarations that only tests
// reach and that stay anyway, each with its reason.
var exportAllowlist = map[string]string{
	// Reference implementations the tests compare production against.
	"internal/bio/seq.KmerProfile.Cosine": "the merge cosine CosineRows and the matrix kernel must equal (FuzzKmerCosine)",
	"internal/phylo.ParseNewick":          "builds the tree fixtures and is the Newick round trip's parser (FuzzNewick)",
	"internal/chem.Mol.RingCount":         "the SMILES parser tests assert ring closures through it",
	"internal/chem.Fingerprint.PopCount":  "the fingerprint tests assert a non-empty fingerprint through it",
	"internal/store.VerifyDir":            "the offline integrity check the fault and WAL tests judge a damaged store directory by",

	// Fault seams of the crash-testing file system.
	"internal/vfs.NewFault":            "fault seam: builds the fault-injecting file system",
	"internal/vfs.NoDirSync":           "fault seam: the reverted-directory-fsync switch of the torture matrix",
	"internal/vfs.FaultFS.SetInjector": "fault seam: installs the fault schedule",
	"internal/vfs.FaultFS.MutOps":      "fault seam: counts the crash points a run passed",
	"internal/vfs.FaultFS.Reboot":      "fault seam: brings the machine back after a crash",
	"internal/vfs.FaultFS.Corrupt":     "fault seam: damages a file at rest",

	// Interface methods the standard library calls.
	"internal/admission.Rejection.Unwrap": "error unwrapping for errors.Is and errors.As",
	"internal/query.rowError.Unwrap":      "error unwrapping for errors.Is and errors.As",
	"internal/vfs.dirEntry.Info":          "fs.DirEntry",
	"internal/vfs.fileInfo.Size":          "fs.FileInfo",
	"internal/vfs.fileInfo.ModTime":       "fs.FileInfo",
	"internal/vfs.fileInfo.Sys":           "fs.FileInfo",

	// State accessors of running components.
	"internal/mobile.Server.Sessions":        "sessions served so far",
	"internal/mobile.Server.ActiveSessions":  "live sessions, which the drain tests watch reach zero",
	"internal/admission.RateLimiter.Clients": "tracked client buckets, which the eviction tests bound",
	"internal/store.DB.WALSeq":               "the log sequence the WAL tests pin across checkpoints and reopens",
	"internal/mobile.Client.VisibleLeaves":   "the leaves and collapsed markers a phone draws from its view",

	// The client's shed contract and the wire's byte accounting.
	"internal/mobile.IsBusy":             "how a client tells a server-busy refusal from a failure",
	"internal/mobile.MsgSize":            "a message's uncompressed frame size, the baseline of the compression tests",
	"internal/mobile.WriteMsgCompressed": "frames one message compressed, as a session does, for the frame tests",
}

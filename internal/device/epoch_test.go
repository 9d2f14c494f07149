package device

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// withCalibration publishes an edited copy of qpu's calibration as its next
// epoch and returns qpu. It is the only way a test changes what the device
// runs: a published Epoch and its Calibration never change.
func withCalibration(qpu *QPU, edit func(*Calibration)) *QPU {
	qpu.mu.Lock()
	defer qpu.mu.Unlock()
	next := qpu.Epoch().Calibration.Clone()
	edit(next)
	qpu.publishLocked(next, 1)
	return qpu
}

// compiledFor is the engine program ExecuteCtx runs c with on the current
// epoch, compiling it on a miss.
func (d *QPU) compiledFor(c *circuit.Circuit) (*compiledJob, bool, error) {
	e, hit, err := d.Epoch().native(c)
	if err != nil {
		return nil, hit, err
	}
	return &e.cj, hit, nil
}

// TestEpochIsWrittenOnlyByItsConstructor type-checks the package's non-test
// source and fails on any write reached through a field of an Epoch — an
// assignment or increment whose target is, or lies inside, one — and on any
// Epoch literal outside newEpoch. The compile map's entries (progs, under
// mu) are the one exemption. It also fails if QPU holds a calibration of its
// own beside the published epoch.
func TestEpochIsWrittenOnlyByItsConstructor(t *testing.T) {
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".go") || strings.HasSuffix(ent.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, ent.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("repro/internal/device", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	epoch := pkg.Scope().Lookup("Epoch").Type()
	isEpoch := func(typ types.Type) bool {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		return types.Identical(typ, epoch)
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "newEpoch" {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.CompositeLit:
					if isEpoch(info.Types[n].Type) {
						t.Errorf("%s: %s builds an Epoch; only newEpoch may", fset.Position(n.Pos()), fn.Name.Name)
					}
				}
				for _, x := range targets {
					for x != nil {
						switch e := x.(type) {
						case *ast.SelectorExpr:
							if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal && isEpoch(s.Recv()) && e.Sel.Name != "progs" {
								t.Errorf("%s: %s writes through Epoch.%s; publish a new epoch instead", fset.Position(e.Pos()), fn.Name.Name, e.Sel.Name)
							}
							x = e.X
						case *ast.IndexExpr:
							x = e.X
						case *ast.StarExpr:
							x = e.X
						case *ast.ParenExpr:
							x = e.X
						default:
							x = nil
						}
					}
				}
				return true
			})
		}
	}
	calib := pkg.Scope().Lookup("Calibration").Type()
	qpu := pkg.Scope().Lookup("QPU").Type().Underlying().(*types.Struct)
	for i := 0; i < qpu.NumFields(); i++ {
		if f := qpu.Field(i); types.Identical(f.Type(), calib) || types.Identical(f.Type(), types.NewPointer(calib)) {
			t.Errorf("QPU.%s holds a calibration beside the published epoch", f.Name())
		}
	}
}

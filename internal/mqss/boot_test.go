package mqss

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/qdmi"
	"repro/internal/qrm"
)

// TestAttachFederationOwnsTheIDBlock: AttachFederation alone hands a
// member's fleet its ID block and node stamp. The first job node-b mints
// is SelfBase()+1 and carries "node-b", and minting refuses past
// SelfLimit() whether recovered history reaches the fleet before or after
// the attach.
func TestAttachFederationOwnsTheIDBlock(t *testing.T) {
	members := fedStack(t, 2, 0, 0)
	m := members[1]
	submit := func(f *fleet.Scheduler) (int, error) {
		return f.Submit(qrm.Request{Circuit: circuit.GHZ(2), Shots: 4, User: "owner"}, fleet.SubmitOptions{})
	}
	id, err := submit(m.server.fleet)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.fed.SelfBase() + 1; id != want {
		t.Fatalf("%s minted %d first, want SelfBase()+1 = %d", m.name, id, want)
	}
	if j, err := m.server.fleet.Job(id); err != nil || j.Node != m.name {
		t.Fatalf("job %d stamped %+v (%v), want node %q", id, j, err, m.name)
	}

	limit := m.fed.SelfLimit()
	for _, restoreFirst := range []bool{true, false} {
		f := newTestFleet(t, map[string]*qdmi.Device{"solo": twinDev(t, "solo", 4, 5, 7)}, 1)
		server := NewFleetServer(f)
		restore := func() {
			last := &fleet.Job{ID: limit - 1, Status: fleet.JobDone, Request: qrm.Request{User: "owner"}}
			if _, err := f.Restore([]*fleet.Job{last}); err != nil {
				t.Fatal(err)
			}
		}
		if restoreFirst {
			restore()
		}
		server.AttachFederation(m.fed)
		if !restoreFirst {
			restore()
		}
		if id, err := submit(f); err != nil || id != limit {
			t.Fatalf("restoreFirst=%v: last mint = %d (%v), want SelfLimit() = %d", restoreFirst, id, err, limit)
		}
		if _, err := submit(f); err == nil || !strings.Contains(err.Error(), "job-ID space exhausted") {
			t.Fatalf("restoreFirst=%v: mint past SelfLimit(): err = %v, want job-ID space exhausted", restoreFirst, err)
		}
	}
}

// TestOnlyTheServerBootsTheFleet: outside tests, the scheduler's recovered
// history (Restore, the one-argument call) and its federation ownership
// (SetOwner) are handed over only by this package's AttachStore and
// AttachFederation, so no boot path can restore without the store or join
// without the ID block.
func TestOnlyTheServerBootsTheFleet(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	calls := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inMQSS := filepath.Dir(path) == filepath.Join(root, "internal", "mqss")
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !(sel.Sel.Name == "SetOwner" || sel.Sel.Name == "Restore" && len(call.Args) == 1) {
				return true
			}
			calls++
			if !inMQSS {
				t.Errorf("%s: %s called outside internal/mqss; boot through Server.AttachStore / AttachFederation",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("found %d Restore/SetOwner calls; the scan missed the server's own", calls)
	}
}

package phylo

import (
	"slices"
	"strings"
	"testing"
)

func TestParseNewickSimple(t *testing.T) {
	tr, err := ParseNewick("((A:0.1,B:0.2):0.05,C:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.LeafNames(); strings.Join(got, ",") != "A,B,C" {
		t.Fatalf("leaves = %v", got)
	}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	a := mustNode(t, tr, "A")
	if !approxEqual(tr.Node(a).Length, 0.1) {
		t.Fatalf("A length = %g", tr.Node(a).Length)
	}
	if !approxEqual(tr.RootDistance(a), 0.15) {
		t.Fatalf("A root distance = %g", tr.RootDistance(a))
	}
}

func TestParseNewickQuotedAndSpaces(t *testing.T) {
	tr, err := ParseNewick("('protein one':1, B :2);")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	mustNode(t, tr, "protein one")
	mustNode(t, tr, "B")
}

func TestParseNewickInternalLabels(t *testing.T) {
	tr, err := ParseNewick("((A:1,B:1)ab:0.5,C:2)root;")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < tr.Len(); i++ {
		if tr.Node(NodeID(i)).Name == "ab" && !tr.Node(NodeID(i)).IsLeaf() {
			found = true
		}
	}
	if !found {
		t.Fatal("internal label lost")
	}
}

func TestParseNewickErrors(t *testing.T) {
	bad := []string{
		"((A:1,B:2);",     // unbalanced
		"(A:1,B:2);extra", // trailing garbage after terminator
		"(A:abc,B:2);",    // bad length
		"(A:1,A:2);",      // duplicate leaves (Validate)
		"('unterminated:1);",
		"",
	}
	for _, s := range bad {
		if _, err := ParseNewick(s); err == nil {
			t.Errorf("ParseNewick(%q) accepted", s)
		}
	}
}

func TestNewickRoundTrip(t *testing.T) {
	src := "((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.25);"
	tr, err := ParseNewick(src)
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Newick()
	tr2, err := ParseNewick(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if strings.Join(tr.LeafNames(), ",") != strings.Join(tr2.LeafNames(), ",") {
		t.Fatalf("leaf sets differ after round trip")
	}
	tr.Index()
	tr2.Index()
	for _, name := range tr.LeafNames() {
		d1 := tr.RootDistance(mustNode(t, tr, name))
		d2 := tr2.RootDistance(mustNode(t, tr2, name))
		if !approxEqual(d1, d2) {
			t.Fatalf("leaf %s root distance %g != %g", name, d1, d2)
		}
	}
}

func TestNewickQuotesSpecialNames(t *testing.T) {
	tr := NewTree()
	r, _ := tr.AddNode("", None, 0)
	tr.AddNode("with space", r, 1)
	tr.AddNode("with:colon", r, 2)
	out := tr.Newick()
	tr2, err := ParseNewick(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if err := tr2.Index(); err != nil {
		t.Fatal(err)
	}
	mustNode(t, tr2, "with space")
	mustNode(t, tr2, "with:colon")
}

func TestNewickSingleLeaf(t *testing.T) {
	tr, err := ParseNewick("A:1;")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves()) != 1 {
		t.Fatalf("leaves = %v", tr.Leaves())
	}
}

// FuzzNewick: the parser never panics, and a string that parses
// serialises (Newick) to text that parses back to the same tree — the
// same node IDs, names, parents, child order and branch lengths — in
// the build form and, after Index, in the frozen one. The parser adds
// nodes in preorder, so Index keeps every ID and the Newick bytes.
func FuzzNewick(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseNewick(src)
		if err != nil {
			return
		}
		text := tr.Newick()
		again, err := ParseNewick(text)
		if err != nil {
			t.Fatalf("%q parsed, but its serialisation %q does not: %v", src, text, err)
		}
		same := func(stage string) {
			if tr.Len() != again.Len() || tr.Root() != again.Root() {
				t.Fatalf("%q %s: %d nodes rooted at %d, %d rooted at %d after the round trip", src, stage, tr.Len(), tr.Root(), again.Len(), again.Root())
			}
			for i := 0; i < tr.Len(); i++ {
				a, b := tr.Node(NodeID(i)), again.Node(NodeID(i))
				if a.Name != b.Name || a.Parent != b.Parent || a.Length != b.Length || !slices.Equal(a.Children, b.Children) {
					t.Fatalf("%q %s: node %d is %+v, %+v after the round trip through %q", src, stage, i, a, b, text)
				}
			}
		}
		same("built")
		built := recordBuilt(tr)
		if err := tr.Index(); err != nil {
			t.Fatalf("%q: Index: %v", src, err)
		}
		for i, want := range built.nodes {
			if got := tr.Node(NodeID(i)); got.Name != want.Name || got.Parent != want.Parent || got.Length != want.Length || !slices.Equal(got.Children, want.Children) {
				t.Fatalf("%q: Index moved node %d: %+v built, %+v indexed", src, i, want, got)
			}
		}
		if err := again.Index(); err != nil {
			t.Fatalf("%q: Index after the round trip: %v", text, err)
		}
		same("indexed")
		if indexed := tr.Newick(); indexed != text {
			t.Fatalf("%q: serialises to %q built and %q indexed", src, text, indexed)
		}
		// The name index against a map oracle: every named node is
		// found, a name's nodes come out in ascending ID, NodeByName is
		// the first of them, and the distinct names are counted.
		oracle := map[string][]NodeID{}
		for i := range tr.Len() {
			if name := tr.Node(NodeID(i)).Name; name != "" {
				oracle[name] = append(oracle[name], NodeID(i))
			}
		}
		if got := tr.DistinctNames(); got != len(oracle) {
			t.Fatalf("%q: %d distinct names, the oracle %d", src, got, len(oracle))
		}
		for name, want := range oracle {
			var got []NodeID
			tr.NodesByName(name, func(id NodeID) bool { got = append(got, id); return true })
			if first, ok := tr.NodeByName(name); !slices.Equal(got, want) || !ok || first != want[0] {
				t.Fatalf("%q: %q names %v, NodeByName %d; the oracle %v", src, name, got, first, want)
			}
		}
		if _, ok := tr.NodeByName(""); ok {
			t.Fatalf("%q: the empty name found a node", src)
		}
	})
}

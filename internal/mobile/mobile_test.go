package mobile

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/phylo"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	return testEngineCfg(t, core.DefaultConfig())
}

func testEngineCfg(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 3
	gen.ProteinsPerFamily = 10
	gen.NumLigands = 12
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 5, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := core.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []any{
		&Hello{Strategy: StrategyLODDelta, Budget: 75},
		&Open{Node: "clade_3"},
		&Query{DTQL: "SELECT * FROM proteins"},
		&Bye{},
		&TreeDelta{
			Reset: true, Focus: 7,
			Add: []WireNode{
				{Pre: 1, Name: "a", ParentPre: 0, IsLeaf: true, LeafCount: 1, Length: 0.5, X: 1.5, Y: 2},
				{Pre: 2, Name: "clade", ParentPre: 0, LeafCount: 42, Length: 0.1, X: 0.4, Y: 9},
			},
			Remove: []int64{3, 4, 5},
		},
		&QueryResult{
			Columns: []string{"a", "b"},
			Rows: []store.Row{
				{store.IntValue(1), store.StringValue("x")},
				{store.IntValue(2), store.NullValue()},
			},
		},
		&ErrorMsg{Text: "boom"},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range msgs {
		got, _, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("decode for %T: %v", want, err)
		}
		switch w := want.(type) {
		case *Hello:
			g := got.(*Hello)
			if g.Strategy != w.Strategy || g.Budget != w.Budget {
				t.Fatalf("hello mismatch: %+v vs %+v", g, w)
			}
		case *Open:
			if got.(*Open).Node != w.Node {
				t.Fatal("open mismatch")
			}
		case *Query:
			if got.(*Query).DTQL != w.DTQL {
				t.Fatal("query mismatch")
			}
		case *Bye:
			if _, ok := got.(*Bye); !ok {
				t.Fatal("bye mismatch")
			}
		case *TreeDelta:
			g := got.(*TreeDelta)
			if g.Reset != w.Reset || g.Focus != w.Focus || len(g.Add) != len(w.Add) || len(g.Remove) != len(w.Remove) {
				t.Fatalf("delta mismatch: %+v vs %+v", g, w)
			}
			for i := range w.Add {
				if g.Add[i] != w.Add[i] {
					t.Fatalf("delta node %d: %+v vs %+v", i, g.Add[i], w.Add[i])
				}
			}
		case *QueryResult:
			g := got.(*QueryResult)
			if len(g.Columns) != len(w.Columns) || len(g.Rows) != len(w.Rows) {
				t.Fatal("result shape mismatch")
			}
			if !store.Equal(g.Rows[0][0], w.Rows[0][0]) || g.Rows[1][1].K != store.KindNull {
				t.Fatal("result values mismatch")
			}
		case *ErrorMsg:
			if got.(*ErrorMsg).Text != w.Text {
				t.Fatal("error mismatch")
			}
		}
	}
}

func TestMsgSizeMatchesEncoding(t *testing.T) {
	m := &TreeDelta{Add: []WireNode{{Pre: 9, Name: "node"}}}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, m); err != nil {
		t.Fatal(err)
	}
	sz, err := MsgSize(m)
	if err != nil {
		t.Fatal(err)
	}
	if sz != int64(buf.Len()) {
		t.Fatalf("MsgSize = %d, encoded = %d", sz, buf.Len())
	}
}

// TestDecodeNodeFlags holds a node's flags byte to protocol rev 4: the
// leaf bit alone, so 0 and 1 decode and the old collapsed bit (2, and 3
// with the leaf bit) is a decode error.
func TestDecodeNodeFlags(t *testing.T) {
	for flags := byte(0); flags < 4; flags++ {
		// A TreeDelta adding node pre=1 "a" under pre 0, one leaf, zero
		// floats, and removing nothing.
		p := append([]byte{byte(MsgTreeDelta), 0, 0, 1, 2, 1, 'a', 0, flags, 1}, make([]byte, 3*8+1)...)
		msg, err := decodeMsg(p)
		if flags > 1 {
			if err == nil {
				t.Errorf("flags byte %d accepted", flags)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flags byte %d: %v", flags, err)
		}
		if got := msg.(*TreeDelta).Add[0].IsLeaf; got != (flags == 1) {
			t.Errorf("flags byte %d decodes IsLeaf %v", flags, got)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	oneCol := []byte{byte(MsgQueryResult), 1, 1, 'a'}
	i, s := byte(store.KindInt), byte(store.KindString)
	for name, p := range map[string][]byte{
		"empty message":                 nil,
		"unknown type":                  {99},
		"truncated open":                {byte(MsgOpen), 0xFF},
		"non-minimal varint":            {byte(MsgOpen), 0x80, 0x00},
		"flag byte 2":                   {byte(MsgHello), 0, 5, 2},
		"trailing byte":                 {byte(MsgBye), 0},
		"cells missing":                 cat(oneCol, []byte{2, i, 1}),
		"unknown column kind":           cat(oneCol, []byte{1, 9}),
		"bool cell byte 2":              cat(oneCol, []byte{1, byte(store.KindBool), 2}),
		"NULL column with a bitmap":     cat(oneCol, []byte{1, nullsFlag}),
		"typed column of no rows":       cat(oneCol, []byte{0, i}),
		"bitmap of only NULLs":          cat(oneCol, []byte{2, i | nullsFlag, 3}),
		"bitmap of no NULL":             cat(oneCol, []byte{2, i | nullsFlag, 0, 2, 4}),
		"bitmap bit past the rows":      cat(oneCol, []byte{2, i | nullsFlag, 5, 2}),
		"dictionary descending":         cat(oneCol, []byte{2, s, 2, 0, 1, 'b', 0, 1, 'a', 0, 1}),
		"dictionary repeats":            cat(oneCol, []byte{2, s, 2, 0, 1, 'a', 1, 0, 0, 1}),
		"dictionary prefix not maximal": cat(oneCol, []byte{2, s, 2, 0, 2, 'a', 'b', 0, 2, 'a', 'c', 0, 1}),
		"dictionary prefix too long":    cat(oneCol, []byte{1, s, 1, 1, 1, 'a', 0}),
		"dictionary entry unused":       cat(oneCol, []byte{1, s, 2, 0, 1, 'a', 0, 1, 'b', 0}),
		"dictionary code past entries":  cat(oneCol, []byte{1, s, 1, 0, 1, 'a', 1}),
		"row count past payload":        cat(oneCol, huge, []byte{0}),
		"column count past bytes":       cat([]byte{byte(MsgQueryResult)}, huge, []byte{1, 'a'}),
		"node count past payload":       cat([]byte{byte(MsgTreeDelta), 0, 0}, huge, make([]byte, 64)),
		"source count past bytes":       cat([]byte{byte(MsgStatus)}, huge, []byte{0, 0, 0, 0}),
		"query slot 0 by reference":     {byte(MsgQuery), 0},
		"query slot with no table":      {byte(MsgQuery), 3, 1, 0},
		"query slot past the table":     {byte(MsgQuery), 0x80, 1, 1, 0},
	} {
		var err error
		// A count is checked against the bytes left before anything is
		// sized by it, so a rejected frame costs next to nothing.
		if n := allocatedBy(func() { _, err = decodeMsg(p) }); n > 4096 {
			t.Errorf("%s: rejecting it allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuildViewportBudget(t *testing.T) {
	e := testEngine(t)
	root := e.Tree().Root()
	for _, budget := range []int{1, 5, 10, 25, 1000} {
		nodes := BuildViewport(e, root, budget)
		if len(nodes) > budget && budget >= 1 {
			t.Fatalf("budget %d produced %d nodes", budget, len(nodes))
		}
		if len(nodes) == 0 {
			t.Fatalf("budget %d produced nothing", budget)
		}
	}
	// Unlimited budget covers the full subtree with nothing collapsed.
	all := BuildViewport(e, root, e.Tree().Len())
	if len(all) != e.Tree().Len() {
		t.Fatalf("full budget = %d nodes, want %d", len(all), e.Tree().Len())
	}
	if collapsed := collapsedIn(all); len(collapsed) != 0 {
		t.Fatalf("nodes %v collapsed under full budget", collapsed)
	}
}

// collapsedIn applies the collapse rule to a view: the pre numbers of
// its internal nodes that no node of the view names as parent.
func collapsedIn(view []WireNode) map[int64]bool {
	parents := map[int64]bool{}
	for _, n := range view {
		parents[n.ParentPre] = true
	}
	collapsed := map[int64]bool{}
	for _, n := range view {
		if !n.IsLeaf && !parents[n.Pre] {
			collapsed[n.Pre] = true
		}
	}
	return collapsed
}

func TestBuildViewportConnected(t *testing.T) {
	e := testEngine(t)
	tr := e.Tree()
	for _, focus := range []phylo.NodeID{tr.Root(), tr.Node(tr.Root()).Children[0]} {
		nodes := BuildViewport(e, focus, 15)
		pres := map[int64]bool{}
		for _, n := range nodes {
			pres[n.Pre] = true
		}
		// The view's root is the one node whose parent is not in the
		// view, and it is the focus, first in preorder.
		roots := 0
		for i, n := range nodes {
			if pres[n.ParentPre] {
				continue
			}
			roots++
			if i != 0 || n.Pre != int64(focus) {
				t.Fatalf("focus %d: node %d (index %d) references missing parent %d; only the focus may", focus, n.Pre, i, n.ParentPre)
			}
		}
		if roots != 1 {
			t.Fatalf("focus %d: viewport has %d roots", focus, roots)
		}
	}
}

func TestBuildViewportLeafCoverage(t *testing.T) {
	// Collapsed markers plus real leaves must account for every leaf.
	e := testEngine(t)
	root := e.Tree().Root()
	nodes := BuildViewport(e, root, 12)
	collapsed := collapsedIn(nodes)
	var covered int64
	for _, n := range nodes {
		if n.IsLeaf {
			covered++
		} else if collapsed[n.Pre] {
			covered += n.LeafCount
		}
	}
	if covered != int64(len(e.Tree().Leaves())) {
		t.Fatalf("covered %d leaves, tree has %d", covered, len(e.Tree().Leaves()))
	}
}

func TestBuildViewportMonotoneInBudget(t *testing.T) {
	// Property: a larger budget renders a superset of the nodes a
	// smaller budget renders (best-first expansion is deterministic).
	e := testEngine(t)
	root := e.Tree().Root()
	prev := map[int64]bool{}
	for _, budget := range []int{1, 3, 7, 15, 31, 63} {
		nodes := BuildViewport(e, root, budget)
		cur := map[int64]bool{}
		for _, n := range nodes {
			cur[n.Pre] = true
		}
		for pre := range prev {
			if !cur[pre] {
				t.Fatalf("budget %d dropped node %d present at a smaller budget", budget, pre)
			}
		}
		prev = cur
	}
}

func TestDiffViewports(t *testing.T) {
	nodes := func(pres ...int64) []WireNode {
		out := make([]WireNode, len(pres))
		for i, p := range pres {
			out[i] = WireNode{Pre: p, Name: fmt.Sprint("n", p)}
		}
		return out
	}
	cases := []struct {
		name   string
		held   map[int64]bool
		next   []WireNode
		add    []WireNode
		remove []int64
	}{
		{"overlap", map[int64]bool{1: true, 2: true, 3: true}, nodes(2, 3, 4), nodes(4), []int64{1}},
		{"empty held set", map[int64]bool{}, nodes(0, 5, 9), nodes(0, 5, 9), nil},
		{"disjoint", map[int64]bool{1: true, 4: true, 8: true}, nodes(2, 3, 9), nodes(2, 3, 9), []int64{1, 4, 8}},
		{"identical", map[int64]bool{2: true, 3: true, 7: true}, nodes(2, 3, 7), nil, nil},
	}
	for _, tc := range cases {
		add, remove := DiffViewports(tc.held, tc.next)
		if !reflect.DeepEqual(add, tc.add) || !reflect.DeepEqual(remove, tc.remove) {
			t.Errorf("%s: add %v remove %v, want add %v remove %v", tc.name, add, remove, tc.add, tc.remove)
		}
	}
}

// runSession drives open interactions through an in-process
// client/server pair and returns the client.
func runSession(t *testing.T, e *core.Engine, strategy Strategy, budget int, opens []string) *Client {
	t.Helper()
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- server.ServeConn(context.Background(), serverConn)
	}()
	c, err := Dial(clientConn, strategy, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range opens {
		if _, err := c.Open(node); err != nil {
			t.Fatalf("open %s: %v", node, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	clientConn.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not finish")
	}
	return c
}

func TestSessionFullStrategy(t *testing.T) {
	e := testEngine(t)
	rootName := e.Root().Name
	c := runSession(t, e, StrategyFull, 50, []string{rootName})
	if len(c.Nodes) != e.Tree().Len() {
		t.Fatalf("client holds %d nodes, want full tree %d", len(c.Nodes), e.Tree().Len())
	}
}

func TestSessionLODStrategy(t *testing.T) {
	e := testEngine(t)
	rootName := e.Root().Name
	c := runSession(t, e, StrategyLOD, 20, []string{rootName})
	if len(c.Nodes) > 20 {
		t.Fatalf("client holds %d nodes, budget 20", len(c.Nodes))
	}
	if len(c.Nodes) == 0 {
		t.Fatal("client holds nothing")
	}
}

func TestSessionDeltaStrategySendsLess(t *testing.T) {
	e := testEngine(t)
	children, err := e.Children(e.Root().Name)
	if err != nil || len(children) < 2 {
		t.Fatalf("children: %v %v", children, err)
	}
	opens := []string{e.Root().Name, children[0].Name, children[1].Name, e.Root().Name}

	e.ResetSession()
	lod := runSession(t, e, StrategyLOD, 30, opens)
	e.ResetSession()
	delta := runSession(t, e, StrategyLODDelta, 30, opens)
	if delta.BytesDown >= lod.BytesDown {
		t.Fatalf("delta strategy moved %d bytes, plain LOD %d", delta.BytesDown, lod.BytesDown)
	}
	// Both end with the same rendered node set.
	if len(delta.Nodes) != len(lod.Nodes) {
		t.Fatalf("render models differ: %d vs %d nodes", len(delta.Nodes), len(lod.Nodes))
	}
	for pre := range lod.Nodes {
		if _, ok := delta.Nodes[pre]; !ok {
			t.Fatalf("delta model missing node %d", pre)
		}
	}
}

func TestSessionQuery(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	go server.ServeConn(context.Background(), serverConn)
	defer clientConn.Close()
	c, err := Dial(clientConn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT family, COUNT(*) FROM proteins GROUP BY family ORDER BY family")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("query rows = %d, want 3", len(res.Rows))
	}
	// Bad query returns a protocol error, not a dead session.
	if _, err := c.Query("SELECT nope FROM nope"); err == nil {
		t.Fatal("bad query succeeded")
	}
	// Session still alive.
	if _, err := c.Query("SELECT COUNT(*) FROM ligands"); err != nil {
		t.Fatalf("session died after error: %v", err)
	}
	// A template's first use carries it; a second use, with other
	// literals, sends fewer bytes up than its text.
	var up [2]int64
	for i, q := range []string{
		"SELECT ligand_id, weight FROM ligands WHERE weight >= 100 ORDER BY weight LIMIT 5",
		"SELECT ligand_id, weight FROM ligands WHERE weight >= 250.5 ORDER BY weight LIMIT 3",
	} {
		before := c.BytesUp
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		if up[i] = c.BytesUp - before; i == 1 && (up[1] >= int64(len(q)) || up[1] >= up[0]) {
			t.Fatalf("second use of a template sent %d bytes up, first %d, text %d", up[1], up[0], len(q))
		}
	}
	c.Close()
}

func TestSessionOpenUnknownNode(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	go server.ServeConn(context.Background(), serverConn)
	defer clientConn.Close()
	c, err := Dial(clientConn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("no-such-node"); err == nil {
		t.Fatal("unknown node accepted")
	}
	c.Close()
}

func TestServerRejectsMissingHello(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- server.ServeConn(context.Background(), serverConn) }()
	WriteMsg(clientConn, &Open{Node: "x"})
	r := bufio.NewReader(clientConn)
	msg, _, err := ReadMsg(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*ErrorMsg); !ok {
		t.Fatalf("expected error, got %T", msg)
	}
	clientConn.Close()
	if err := <-done; err == nil {
		t.Fatal("server accepted session without hello")
	}
}

// TestHelloBudgetBounded pins the Hello budget's range: a budget of
// MaxBudget opens a session, zero or a negative one means 100, and one
// above MaxBudget — up to the largest uvarint, which an int conversion
// would have wrapped negative — is answered with an ErrorMsg and ends
// the session before it is admitted.
func TestHelloBudgetBounded(t *testing.T) {
	e := multifurcatingEngine(t, 3, 120)
	root := e.Tree().Root()
	server := NewServer(e)
	for _, budget := range []int{MaxBudget, 0, -7} {
		conn, done := serveOnce(t, server)
		c, err := Dial(conn, StrategyLODDelta, budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if _, err := c.Open(e.Tree().Node(root).Name); err != nil {
			t.Fatal(err)
		}
		want := len(BuildViewport(e, root, max(budget, 100)))
		if budget <= 0 && want != 100 {
			t.Fatalf("tree too small to tell a budget of 100: %d nodes", want)
		}
		if len(c.Nodes) != want {
			t.Errorf("budget %d: client holds %d nodes, want %d", budget, len(c.Nodes), want)
		}
		c.Close()
		if err := waitSession(t, done); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []uint64{MaxBudget + 1, 1 << 63, ^uint64(0)} {
		conn, done := serveOnce(t, server)
		payload := binary.AppendUvarint([]byte{byte(MsgHello), byte(StrategyLODDelta)}, budget)
		frame := binary.AppendUvarint(nil, uint64(len(payload)+2))
		frame = append(append(append(frame, frameRaw), payload...), 0)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		msg, _, err := ReadMsg(bufio.NewReader(conn))
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if m, ok := msg.(*ErrorMsg); !ok || m.Text != errBudget.Error() {
			t.Errorf("budget %d answered with %+v, want the budget error", budget, msg)
		}
		if err := waitSession(t, done); !errors.Is(err, errBudget) {
			t.Errorf("budget %d: session ended with %v, want the budget error", budget, err)
		}
	}
	if n := server.Sessions(); n != 3 {
		t.Errorf("%d sessions admitted, want 3", n)
	}
	conn, _ := serveOnce(t, server)
	if _, err := Dial(conn, StrategyLODDelta, MaxBudget+1); err == nil {
		t.Error("a client asking for MaxBudget+1 was admitted")
	}
}

func TestSessionOverShapedLink(t *testing.T) {
	// End-to-end over a lossy-ish shaped pipe: functional behaviour
	// must be identical; latency must reflect the link.
	e := testEngine(t)
	server := NewServer(e)
	link := netsim.NewLink(netsim.Profile{
		Name: "test", RTT: 20 * time.Millisecond,
		DownBps: 1 << 24, UpBps: 1 << 24,
	}, 1, false)
	clientConn, serverConn := netsim.Pipe(link)
	defer clientConn.Close()
	defer serverConn.Close()
	go server.ServeConn(context.Background(), serverConn)
	c, err := Dial(clientConn, StrategyLOD, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(e.Root().Name); err != nil {
		t.Fatal(err)
	}
	if len(c.Latencies) != 1 || c.Latencies[0] < 15*time.Millisecond {
		t.Fatalf("latency %v does not reflect 20ms RTT", c.Latencies)
	}
	c.Close()
}

func TestServeOverTCP(t *testing.T) {
	// The real accept loop end to end over localhost TCP.
	e := testEngine(t)
	server := NewServer(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go server.Serve(context.Background(), l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := Dial(conn, StrategyLOD, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(e.Root().Name); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if got := RowsAsStrings(res); len(got) != 1 || got[0] != "30" {
		t.Fatalf("query over TCP = %v", got)
	}
	if c.VisibleLeaves() == 0 {
		t.Fatal("no visible leaves after open")
	}
	c.Close()
	if server.Sessions() != 1 {
		t.Fatalf("sessions = %d", server.Sessions())
	}
}

func TestEnumStrings(t *testing.T) {
	for _, m := range []MsgType{MsgHello, MsgOpen, MsgQuery, MsgBye, MsgTreeDelta, MsgQueryResult, MsgError, MsgType(99)} {
		if m.String() == "" {
			t.Fatalf("empty string for %d", m)
		}
	}
	for _, s := range []Strategy{StrategyFull, StrategyLOD, StrategyLODDelta, Strategy(99)} {
		if s.String() == "" {
			t.Fatalf("empty string for strategy %d", s)
		}
	}
}

func TestCompressedSessionFewerBytes(t *testing.T) {
	e := testEngine(t)
	rootName := e.Root().Name

	run := func(compress bool) int64 {
		e.ResetSession()
		server := NewServer(e)
		clientConn, serverConn := net.Pipe()
		defer clientConn.Close()
		defer serverConn.Close()
		go server.ServeConn(context.Background(), serverConn)
		var c *Client
		var err error
		if compress {
			c, err = DialCompressed(clientConn, StrategyFull, 50)
		} else {
			c, err = Dial(clientConn, StrategyFull, 50)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open(rootName); err != nil {
			t.Fatal(err)
		}
		nodes := len(c.Nodes)
		if nodes != e.Tree().Len() {
			t.Fatalf("render model = %d nodes, want %d", nodes, e.Tree().Len())
		}
		c.Close()
		return c.BytesDown
	}
	raw := run(false)
	compressed := run(true)
	if compressed >= raw {
		t.Fatalf("compression did not shrink: %d vs %d bytes", compressed, raw)
	}
	if raw < compressed*2 {
		t.Logf("note: compression ratio only %.2fx", float64(raw)/float64(compressed))
	}
}

func TestSmallResponsesNotCompressed(t *testing.T) {
	// Payloads under the threshold ship raw even on a compressed
	// session (the flate header would inflate them).
	var buf bytes.Buffer
	n, err := WriteMsgCompressed(&buf, &ErrorMsg{Text: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MsgSize(&ErrorMsg{Text: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if n != raw {
		t.Fatalf("tiny message resized: %d vs %d", n, raw)
	}
	msg, wire, err := ReadMsg(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if wire != n || msg.(*ErrorMsg).Text != "tiny" {
		t.Fatalf("round trip: wire=%d msg=%v", wire, msg)
	}
}

func TestCompressedFrameRoundTrip(t *testing.T) {
	// A large highly-redundant delta must compress and inflate back
	// losslessly.
	d := &TreeDelta{Reset: true}
	for i := 0; i < 500; i++ {
		d.Add = append(d.Add, WireNode{Pre: int64(i), Name: "node-name-repeats", LeafCount: 3})
	}
	var buf bytes.Buffer
	n, err := WriteMsgCompressed(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := MsgSize(d)
	if n >= raw {
		t.Fatalf("redundant payload did not compress: %d vs %d", n, raw)
	}
	msg, wire, err := ReadMsg(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if wire != n {
		t.Fatalf("wire accounting: %d vs %d", wire, n)
	}
	got := msg.(*TreeDelta)
	if len(got.Add) != 500 || got.Add[499] != d.Add[499] {
		t.Fatalf("compressed round trip corrupted: %d nodes", len(got.Add))
	}
}

func TestViewportFocusOnSubclade(t *testing.T) {
	e := testEngine(t)
	children, _ := e.Children(e.Root().Name)
	if len(children) == 0 {
		t.Skip("no children")
	}
	focus, err := e.NodeByName(children[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	nodes := BuildViewport(e, focus, 10)
	lo, hi := e.Tree().SubtreeInterval(focus)
	for _, n := range nodes {
		if n.Pre < int64(lo) || n.Pre > int64(hi) {
			t.Fatalf("viewport node %d outside focus interval [%d,%d]", n.Pre, lo, hi)
		}
	}
	_ = phylo.None
}

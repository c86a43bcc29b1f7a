package routing

import (
	"bytes"
	"encoding/json"
	"testing"

	"ftroute/internal/gen"
)

func TestRoutingJSONRoundTripBidirectional(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRouting(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() || back.Bidirectional() != r.Bidirectional() {
		t.Fatalf("len %d vs %d", back.Len(), r.Len())
	}
	r.Each(func(u, v int, p Path) {
		q, ok := back.Get(u, v)
		if !ok || !q.Equal(p) {
			t.Fatalf("route (%d,%d) lost: %v vs %v", u, v, p, q)
		}
	})
}

func TestRoutingJSONRoundTripUnidirectional(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r := New(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Set(Path{2, 3, 4, 5, 0}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRouting(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Bidirectional() {
		t.Fatalf("back = %d routes, bidi=%v", back.Len(), back.Bidirectional())
	}
	// Both asymmetric directions preserved independently.
	p, _ := back.Get(0, 2)
	q, _ := back.Get(2, 0)
	if !p.Equal(Path{0, 1, 2}) || !q.Equal(Path{2, 3, 4, 5, 0}) {
		t.Fatalf("asymmetric routes lost: %v / %v", p, q)
	}
}

func TestDecodeRoutingRejectsMismatchedGraph(t *testing.T) {
	g6, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	g8, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g6)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRouting(g8, data); err == nil {
		t.Fatal("node-count mismatch should fail")
	}
	// A graph with the same node count but missing edges must also be
	// rejected: the paths re-validate.
	sparse, err := gen.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRouting(sparse, data); err == nil {
		t.Fatal("paths over missing edges should fail validation")
	}
}

func TestDecodeRoutingRejectsGarbage(t *testing.T) {
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRouting(g, []byte("{")); err == nil {
		t.Fatal("syntax error should fail")
	}
}

func TestWriteTo(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) || buf.Len() == 0 {
		t.Fatalf("WriteTo = (%d, %v), buf %d", n, err, buf.Len())
	}
	back, err := DecodeRouting(g, buf.Bytes())
	if err != nil || back.Len() != r.Len() {
		t.Fatalf("decode after WriteTo: %v", err)
	}
}

func TestMultiRoutingJSONRoundTrip(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMulti(g, 2, true)
	if err := m.Add(Path{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 5, 4, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{1, 2}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMultiRouting(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Limit() != 2 || back.Pairs() != m.Pairs() {
		t.Fatalf("limit=%d pairs=%d vs %d", back.Limit(), back.Pairs(), m.Pairs())
	}
	if got := back.Get(0, 3); len(got) != 2 {
		t.Fatalf("routes (0,3) = %v", got)
	}
	if got := back.Get(3, 0); len(got) != 2 {
		t.Fatalf("reverse routes (3,0) = %v", got)
	}
}

func TestDecodeMultiRoutingRejects(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMultiRouting(g, []byte(`{"nodes":9}`)); err == nil {
		t.Fatal("node mismatch should fail")
	}
	if _, err := DecodeMultiRouting(g, []byte(`{`)); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := DecodeMultiRouting(g, []byte(`{"nodes":5,"limit":1,"routes":[[[0,2]]]}`)); err == nil {
		t.Fatal("non-edge path should fail")
	}
}

// TestJSONEncodingIsCanonical pins the wire form to one byte string per
// routing: repeated encodings agree (map iteration order must not leak
// into the output), and decode∘encode reproduces the bytes.
func TestJSONEncodingIsCanonical(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	firstMulti, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if again, _ := json.Marshal(r); !bytes.Equal(again, first) {
			t.Fatalf("routing encoding %d differs from the first", i)
		}
		if again, _ := json.Marshal(m); !bytes.Equal(again, firstMulti) {
			t.Fatalf("multirouting encoding %d differs from the first", i)
		}
	}
	back, err := DecodeRouting(g, first)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, first) {
		t.Fatal("decode∘encode changed the routing bytes")
	}
	backMulti, err := DecodeMultiRouting(g, firstMulti)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(backMulti); !bytes.Equal(again, firstMulti) {
		t.Fatal("decode∘encode changed the multirouting bytes")
	}
}

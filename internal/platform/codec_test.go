package platform

import (
	"bytes"
	"strings"
	"testing"

	"hydra/internal/graph"
)

func TestDecodeRejectsBadLocalIDs(t *testing.T) {
	d := miniDataset(t)
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	// Corrupt a local id in the JSON.
	s := strings.Replace(buf.String(), `"local":0`, `"local":9`, 1)
	if _, err := Decode(strings.NewReader(s)); err == nil {
		t.Fatal("expected local-id mismatch error")
	}
}

func TestEncodeDeterministicPlatformOrder(t *testing.T) {
	d := miniDataset(t)
	var a, b bytes.Buffer
	if err := Encode(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, d); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Encode output not deterministic")
	}
	// Platforms must appear in sorted-id order.
	fb := strings.Index(a.String(), string(Facebook))
	tw := strings.Index(a.String(), string(Twitter))
	if fb < 0 || tw < 0 || fb > tw {
		t.Fatal("platforms not in sorted order")
	}
}

func TestDecodeEmptyAttrsGetMap(t *testing.T) {
	d := NewDataset(span())
	p := &Platform{ID: Twitter, Graph: graph.New(1)}
	p.Accounts = append(p.Accounts, &Account{
		Platform: Twitter, Local: 0, Person: 0,
		Profile: Profile{Username: "x"}, // nil Attrs
	})
	if err := d.AddPlatform(p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	acc := got.Platforms[Twitter].Accounts[0]
	if acc.Profile.Attrs == nil {
		t.Fatal("decoded profile must have a non-nil attrs map")
	}
	// Attribute lookup on the empty map must behave.
	if _, ok := acc.Profile.Attr(AttrJob); ok {
		t.Fatal("empty profile should miss every attribute")
	}
}

func TestRoundTripLargeWorldEdges(t *testing.T) {
	// Graph weights must survive the trip exactly.
	d := NewDataset(span())
	p := &Platform{ID: Renren, Graph: graph.New(4)}
	for i := 0; i < 4; i++ {
		p.Accounts = append(p.Accounts, &Account{Platform: Renren, Local: i, Person: i,
			Profile: Profile{Username: "u", Attrs: map[AttrName]string{}}})
	}
	p.Graph.AddEdge(0, 1, 1.25)
	p.Graph.AddEdge(1, 2, 3.5)
	p.Graph.AddEdge(2, 3, 0.125)
	if err := d.AddPlatform(p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Platforms[Renren].Graph
	if g.Weight(0, 1) != 1.25 || g.Weight(1, 2) != 3.5 || g.Weight(2, 3) != 0.125 {
		t.Fatal("edge weights corrupted")
	}
	if g.Degree(0)+g.Degree(1)+g.Degree(2)+g.Degree(3) != 6 {
		t.Fatal("decoded graph holds other edges than the three encoded")
	}
}

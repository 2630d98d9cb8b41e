package rsm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"crdtsmr/internal/transport"
)

const errTestNoLeader = Transient("test: no known leader")

// textMsg is a message whose encoding is its text.
type textMsg string

func (m textMsg) Encode() []byte { return []byte(m) }

type textForwarding struct{}

func (textForwarding) Forward(reqID uint64, cmd []byte, read bool) Message {
	return textMsg(fmt.Sprintf("forward %d %s read=%v", reqID, cmd, read))
}

func (textForwarding) Reply(reqID uint64, result []byte, err string) Message {
	return textMsg(fmt.Sprintf("reply %d %s err=%s", reqID, result, err))
}

func newTestCommands(t *testing.T) *Commands {
	t.Helper()
	c, err := NewCommands("n1", []transport.NodeID{"n1", "n2", "n3"}, errTestNoLeader, textForwarding{})
	if err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestNewCommandsDerivesPeersAndQuorum(t *testing.T) {
	c := newTestCommands(t)
	if want := []transport.NodeID{"n2", "n3"}; c.ID() != "n1" || !reflect.DeepEqual(c.Peers(), want) || c.Quorum() != 2 {
		t.Fatalf("id %s peers %v quorum %d, want n1, %v and 2", c.ID(), c.Peers(), c.Quorum(), want)
	}
	if _, err := NewCommands("n9", []transport.NodeID{"n1", "n2"}, errTestNoLeader, textForwarding{}); err == nil {
		t.Fatal("a replica outside the member list was accepted")
	}
}

// TestFailForwardsInIDOrder: pending forwards fail in forward-ID order,
// each once and with the no-leader error, and a late reply is ignored.
func TestFailForwardsInIDOrder(t *testing.T) {
	c := newTestCommands(t)
	const n = 64
	var failed []int
	for i := 1; i <= n; i++ {
		c.Forward("n2", []byte("cmd"), i%2 == 0, func(_ []byte, err error) {
			if err != errTestNoLeader {
				t.Errorf("forward %d failed with %v", i, err)
			}
			failed = append(failed, i)
		})
	}
	if out := c.TakeOutbox(); len(out) != n || out[0].To != "n2" || string(out[1].Payload) != "forward 2 cmd read=true" {
		t.Fatalf("outbox %v", out)
	}
	c.FailForwards()
	for i, id := range failed {
		if id != i+1 {
			t.Fatalf("failure order %v, want forward-ID order", failed)
		}
	}
	if len(failed) != n {
		t.Fatalf("%d of %d forwards failed", len(failed), n)
	}
	c.Resolve(1, []byte("late"), "")
	c.FailForwards()
	if len(failed) != n {
		t.Fatal("a failed forward completed again")
	}
}

// TestResolveKeepsTransient: a reply's error text comes back as the
// Transient the leader reported, and its result as the command's result.
func TestResolveKeepsTransient(t *testing.T) {
	c := newTestCommands(t)
	const lost = Transient("test: leadership lost before commit")
	var errs []error
	var results []string
	for range 2 {
		c.Forward("n2", []byte("cmd"), false, func(res []byte, err error) {
			errs = append(errs, err)
			results = append(results, string(res))
		})
	}
	c.Resolve(1, nil, lost.Error())
	c.Resolve(2, []byte("7"), "")
	if !errors.Is(errs[0], lost) || errs[1] != nil || results[1] != "7" {
		t.Fatalf("errors %v, results %q", errs, results)
	}
}

// TestAcceptDropsDuplicatesInWindow: a forward seen before from the same
// origin is dropped while it is inside the window, and IDs that fall more
// than the window behind the origin's highest are forgotten.
func TestAcceptDropsDuplicatesInWindow(t *testing.T) {
	c := newTestCommands(t)
	reply, ok := c.Accept("n2", 1)
	if !ok {
		t.Fatal("first delivery dropped")
	}
	if _, ok := c.Accept("n2", 1); ok {
		t.Fatal("duplicate admitted")
	}
	if _, ok := c.Accept("n3", 1); !ok {
		t.Fatal("another origin's ID 1 dropped")
	}
	reply([]byte("5"), errTestNoLeader)
	if out := c.TakeOutbox(); len(out) != 1 || out[0].To != "n2" || string(out[0].Payload) != "reply 1 5 err="+errTestNoLeader.Error() {
		t.Fatalf("reply outbox %v", out)
	}

	last := uint64(2*forwardDedupWindow + 1)
	for id := uint64(2); id <= last; id++ {
		if _, ok := c.Accept("n2", id); !ok {
			t.Fatalf("fresh ID %d dropped", id)
		}
	}
	if _, ok := c.Accept("n2", last-forwardDedupWindow); ok {
		t.Fatal("duplicate inside the window admitted")
	}
	if _, ok := c.Accept("n2", 1); !ok {
		t.Fatal("ID older than the window still remembered")
	}
}

package petri

import (
	"errors"
	"fmt"
	"testing"
)

// ringNet builds a k-stage ring t0 -> p0 -> t1 -> p1 -> ... -> t0 with
// tokens on the given places.
func ringNet(k int, marked ...int) *Net {
	n := New(fmt.Sprintf("ring-%d", k))
	for i := 0; i < k; i++ {
		n.AddTransition(fmt.Sprintf("t%d", i))
	}
	for i := 0; i < k; i++ {
		n.AddPlace(fmt.Sprintf("p%d", i), 0)
		n.ArcTP(i, i)
		n.ArcPT(i, (i+1)%k)
	}
	for _, p := range marked {
		n.Places[p].Initial++
	}
	return n
}

// TestCodecsMatchTokenGame plays every reachable marking of rings through
// both codecs and the byte-slice token game: the same enabled sets, the
// same successors, the same labels, and round trips through Pack and
// Unpack. The 70-place ring's bit markings take two words.
func TestCodecsMatchTokenGame(t *testing.T) {
	for _, n := range []*Net{ringNet(70, 0, 35, 69), ringNet(9, 0, 0, 4), ringNet(3, 0)} {
		safe := n.InitialMarking().Safe()
		newCodec := NewByteCodec
		if safe {
			newCodec = NewBitCodec
		}
		c, err := newCodec(n)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		queue := []Marking{n.InitialMarking()}
		w, next := make([]uint64, c.Words()), make([]uint64, c.Words())
		for len(queue) > 0 && len(seen) < 5000 {
			m := queue[0]
			queue = queue[1:]
			if seen[string(m)] {
				continue
			}
			seen[string(m)] = true
			c.Pack(w, m)
			if got := c.Unpack(make(Marking, len(m)), w); !got.Equal(m) {
				t.Fatalf("%s: %v unpacks as %v", n.Name, m, got)
			}
			if got := c.Format(w); got != m.Format(n) {
				t.Fatalf("%s: Format %s, want %s", n.Name, got, m.Format(n))
			}
			if key := KeyString(w); safe && FormatKey(key, n) != m.Format(n) {
				t.Fatalf("%s: FormatKey %s, want %s", n.Name, FormatKey(key, n), m.Format(n))
			}
			for tr := range n.Transitions {
				if c.Enabled(w, tr) != n.Enabled(m, tr) {
					t.Fatalf("%s: %s enabled %v at %v", n.Name, n.Transitions[tr].Name, c.Enabled(w, tr), m)
				}
				if !n.Enabled(m, tr) {
					continue
				}
				succ := n.Fire(m, tr)
				if over := c.Fire(next, w, tr); over >= 0 {
					if !safe || succ.Safe() {
						t.Fatalf("%s: firing %s from %v overfills %d", n.Name, n.Transitions[tr].Name, m, over)
					}
					continue
				}
				if got := c.Unpack(make(Marking, len(m)), next); !got.Equal(succ) {
					t.Fatalf("%s: firing %s from %v gives %v, want %v", n.Name, n.Transitions[tr].Name, m, got, succ)
				}
				queue = append(queue, succ)
			}
		}
	}
}

// TestBitCodecReportsSecondToken pins the safety term: firing into a
// marked place that the transition does not consume reports that place.
func TestBitCodecReportsSecondToken(t *testing.T) {
	n := ringNet(70, 0, 68) // t69 consumes p68 and produces into p69
	n.Places[69].Initial = 1
	c, err := NewBitCodec(n)
	if err != nil {
		t.Fatal(err)
	}
	w, next := make([]uint64, c.Words()), make([]uint64, c.Words())
	c.Pack(w, n.InitialMarking())
	if over := c.Fire(next, w, 69); over != 69 {
		t.Fatalf("firing t69 onto marked p69 reports %d, want 69", over)
	}
	if over := c.Fire(next, w, 1); over != -1 {
		t.Fatalf("firing t1 reports %d, want -1", over)
	}
}

// TestCodecRejectsRepeatedArc covers nets built through the API, which
// ParseG's duplicate-arc check does not see.
func TestCodecRejectsRepeatedArc(t *testing.T) {
	for _, post := range []bool{false, true} {
		n := ringNet(3, 0)
		if post {
			n.ArcTP(1, 1)
		} else {
			n.ArcPT(0, 1)
		}
		for _, newCodec := range []func(*Net) (*Codec, error){NewBitCodec, NewByteCodec} {
			_, err := newCodec(n)
			if !errors.Is(err, ErrRepeatedArc) {
				t.Fatalf("post=%v: got %v, want ErrRepeatedArc", post, err)
			}
		}
	}
	_, err := NewBitCodec(func() *Net { n := ringNet(3, 0); n.ArcPT(0, 1); return n }())
	if want := "petri: transition lists a place twice: t1 lists p0 twice in its preset"; err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}

// TestByteCodecOverflow pins the 256th-token report.
func TestByteCodecOverflow(t *testing.T) {
	n := ringNet(2, 0)
	n.Places[1].Initial = 255
	c, err := NewByteCodec(n)
	if err != nil {
		t.Fatal(err)
	}
	w, next := make([]uint64, c.Words()), make([]uint64, c.Words())
	c.Pack(w, n.InitialMarking())
	if over := c.Fire(next, w, 1); over != 1 {
		t.Fatalf("firing t1 onto 255 tokens reports %d, want 1", over)
	}
	if got := c.OverflowError(1, 1).Error(); got != "petri: token count exceeds 255: firing t1 puts a 256th token in p1" {
		t.Fatalf("error %q", got)
	}
}

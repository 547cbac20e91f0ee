package petri

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Packed markings. The explorers key every visited state by a marking packed
// into fixed-width 64-bit words, and this file is the one owner of that
// format:
//
//   - a bit marking (safe nets) holds place p in bit p%64 of word p/64, the
//     one-Boolean-per-place encoding of Section 2.2;
//   - a byte marking (nets that may be unsafe) holds place p's token count in
//     byte p%8 of word p/8, counts 0..255.
//
// A key string is a packed marking's words as little-endian bytes, so bit p
// of a bit marking is bit p%8 of the key's byte p/8.

// ErrRepeatedArc is returned for a net whose transition lists a place twice
// in its preset or postset: the token game of this package gives every arc
// weight one.
var ErrRepeatedArc = errors.New("petri: transition lists a place twice")

// ErrTokenOverflow is returned by byte-marking explorers on a firing that
// would put a 256th token in a place.
var ErrTokenOverflow = errors.New("petri: token count exceeds 255")

// Codec plays the token game of one net on packed markings. A bit codec
// needs a safe net and reports every firing that would put a second token
// in a place; a byte codec reports every firing that would put a 256th.
type Codec struct {
	net   *Net
	words int
	bytes bool
	// pre and post are the bit codec's per-transition place masks,
	// words apiece: transition t's at [t*words, (t+1)*words).
	pre, post []uint64
	scratch   Marking
}

// NewBitCodec returns the codec of n's safe markings, one bit per place.
func NewBitCodec(n *Net) (*Codec, error) {
	if err := checkArcs(n); err != nil {
		return nil, err
	}
	w := (len(n.Places) + 63) / 64
	c := &Codec{net: n, words: w, scratch: make(Marking, len(n.Places))}
	c.pre = make([]uint64, w*len(n.Transitions))
	c.post = make([]uint64, w*len(n.Transitions))
	for t, tr := range n.Transitions {
		for _, p := range tr.Pre {
			c.pre[t*w+p/64] |= 1 << uint(p%64)
		}
		for _, p := range tr.Post {
			c.post[t*w+p/64] |= 1 << uint(p%64)
		}
	}
	return c, nil
}

// NewByteCodec returns the codec of n's markings with up to 255 tokens per
// place, one byte per place.
func NewByteCodec(n *Net) (*Codec, error) {
	if err := checkArcs(n); err != nil {
		return nil, err
	}
	return &Codec{net: n, words: (len(n.Places) + 7) / 8, bytes: true,
		scratch: make(Marking, len(n.Places))}, nil
}

// checkArcs rejects a transition that lists a place twice.
func checkArcs(n *Net) error {
	seen := make([]int, len(n.Places))
	for t, tr := range n.Transitions {
		for side, list := range [2][]int{tr.Pre, tr.Post} {
			stamp := 2*t + side + 1
			for _, p := range list {
				if seen[p] == stamp {
					dir := "preset"
					if side == 1 {
						dir = "postset"
					}
					return fmt.Errorf("%w: %s lists %s twice in its %s",
						ErrRepeatedArc, tr.Name, n.Places[p].Name, dir)
				}
				seen[p] = stamp
			}
		}
	}
	return nil
}

// Words returns the width of the codec's packed markings.
func (c *Codec) Words() int { return c.words }

// Pack writes m into dst, which must hold Words() words. A bit codec
// records only whether each place is marked.
func (c *Codec) Pack(dst []uint64, m Marking) {
	clear(dst[:c.words])
	for p, v := range m {
		if c.bytes {
			dst[p/8] |= uint64(v) << uint(8*(p%8))
		} else if v > 0 {
			dst[p/64] |= 1 << uint(p%64)
		}
	}
}

// Unpack writes the packed marking w into dst, one byte per place, and
// returns dst.
func (c *Codec) Unpack(dst Marking, w []uint64) Marking {
	for p := range dst {
		if c.bytes {
			dst[p] = byte(w[p/8] >> uint(8*(p%8)))
		} else {
			dst[p] = byte(w[p/64] >> uint(p%64) & 1)
		}
	}
	return dst
}

// Format renders the packed marking w like Marking.Format.
func (c *Codec) Format(w []uint64) string {
	return c.Unpack(c.scratch, w).Format(c.net)
}

// Enabled reports whether transition t is enabled at the packed marking m.
func (c *Codec) Enabled(m []uint64, t int) bool {
	if c.bytes {
		for _, p := range c.net.Transitions[t].Pre {
			if m[p/8]>>uint(8*(p%8))&0xff == 0 {
				return false
			}
		}
		return true
	}
	pre := c.pre[t*c.words : (t+1)*c.words]
	for i, w := range pre {
		if w&^m[i] != 0 {
			return false
		}
	}
	return true
}

// Fire writes the marking reached by firing the enabled transition t from m
// into dst (which may not alias m). It returns -1, or the first place the
// firing overfills: a second token under a bit codec, a 256th under a byte
// codec. dst is unspecified after an overfill.
func (c *Codec) Fire(dst, m []uint64, t int) int {
	if c.bytes {
		copy(dst, m[:c.words])
		tr := &c.net.Transitions[t]
		for _, p := range tr.Pre {
			dst[p/8] -= 1 << uint(8*(p%8))
		}
		for _, p := range tr.Post {
			if dst[p/8]>>uint(8*(p%8))&0xff == 0xff {
				return p
			}
			dst[p/8] += 1 << uint(8*(p%8))
		}
		return -1
	}
	pre := c.pre[t*c.words : (t+1)*c.words]
	post := c.post[t*c.words : (t+1)*c.words]
	over := -1
	for i := range pre {
		kept := m[i] &^ pre[i]
		if clash := post[i] & kept; clash != 0 && over < 0 {
			over = 64*i + bits.TrailingZeros64(clash)
		}
		dst[i] = kept | post[i]
	}
	return over
}

// OverflowError is the byte codec's error for transition t putting a 256th
// token in place p.
func (c *Codec) OverflowError(t, p int) error {
	return fmt.Errorf("%w: firing %s puts a 256th token in %s", ErrTokenOverflow,
		c.net.Transitions[t].Name, c.net.Places[p].Name)
}

// KeyString returns the packed words w as little-endian bytes: the key
// string format of packed markings. A state graph slices one KeyString of
// all its states' words into per-state keys.
func KeyString(w []uint64) string {
	var b strings.Builder
	b.Grow(8 * len(w))
	var buf [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(buf[:], x)
		b.Write(buf[:])
	}
	return b.String()
}

// KeyMarked reports whether place p is marked in the bit-marking key.
func KeyMarked(key string, p int) bool {
	return p/8 < len(key) && key[p/8]>>uint(p%8)&1 != 0
}

// FormatKey renders a bit-marking key over n's places like Marking.Format.
// Bytes past the marking (a state graph may append a code) are ignored.
func FormatKey(key string, n *Net) string {
	names := []string{}
	for p := range n.Places {
		if KeyMarked(key, p) {
			names = append(names, n.Places[p].Name)
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

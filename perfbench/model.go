package main

// The hot-rmw checker: a causal-history model of the operations the
// benchmark issued, built apart from the program. Following the
// causal-history semantics of the DVV paper (C[[·]], Preguiça et al.,
// arXiv 1011.5808), every write to a key is an event; a write's history
// is the set of events its session had observed plus its own event; a
// write discards exactly the siblings whose events that history holds.
// A get must return exactly the surviving siblings' values.
//
// The model keeps only what those rules can still use. A history is only
// ever asked whether it holds a live (not yet discarded) write, and a
// discarded write never comes back. A write's history holds no other
// write that stays live: what it observed it discarded, and every later
// write has a higher id. So what a session has observed of a key,
// restricted to the live writes, is exactly the live writes whose id is
// at most the key's last id at the session's last observation of it (a
// get returns, and a put's reply carries, every live sibling). The model
// therefore stores one id per session and key, and allocates nothing per
// operation once its slices have grown.

import (
	"bytes"
	"fmt"
	"strconv"
)

type keyModel struct {
	next    int32   // last write id issued
	live    []int32 // ids of the writes not discarded, ascending
	tainted bool    // a failed op left the key's state unknown: not checked
}

// rmwModel tracks every key and what each session has observed of it.
type rmwModel struct {
	keys []keyModel
	// seen[s][k] is keys[k].next when session s last observed k: s has
	// observed exactly the live writes of k with an id up to it.
	seen      [][]int32
	valueSize int

	buf  []byte // scratch: one expected value
	used []bool // scratch: siblings matched by a get

	gets, lost, extra int // gets checked; acked writes missing; values not predicted
	firstBad          string
}

func newRMWModel(sessions, keys, valueSize int) *rmwModel {
	m := &rmwModel{keys: make([]keyModel, keys), seen: make([][]int32, sessions), valueSize: valueSize}
	for s := range m.seen {
		m.seen[s] = make([]int32, keys)
	}
	return m
}

// appendValue appends the size-byte payload of version ver of key k: a
// readable tag naming both, then filler that depends on both.
func appendValue(b []byte, tag byte, k, ver, size int) []byte {
	start := len(b)
	b = append(b, tag)
	b = appendPadded(b, k, 5)
	b = append(b, '@')
	b = appendPadded(b, ver, 9)
	b = append(b, ':')
	for len(b)-start < size {
		b = append(b, byte('a'+(k*7+ver+len(b)-start)%26))
	}
	return b
}

// appendPadded appends n in decimal, zero-padded to width digits.
func appendPadded(b []byte, n, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(n), 10)
	for w := len(digits); w < width; w++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// holdsOnly reports whether got is exactly the one value want.
func holdsOnly(got [][]byte, want []byte) bool {
	return len(got) == 1 && bytes.Equal(got[0], want)
}

// value is the payload of write id of key k, freshly allocated: the
// store keeps the slice it is given.
func (m *rmwModel) value(k int, id int32) []byte {
	return appendValue(make([]byte, 0, m.valueSize), 'k', k, int(id), m.valueSize)
}

// nextPut returns the id and value the session's next write to k carries.
func (m *rmwModel) nextPut(k int) (int32, []byte) {
	id := m.keys[k].next + 1
	return id, m.value(k, id)
}

// put records the acked write id by session s: it supersedes exactly the
// live writes s had observed, and s then observes the post-write state
// (the write returns the context of every surviving sibling).
func (m *rmwModel) put(s, k int, id int32) {
	km := &m.keys[k]
	km.next = id
	live := km.live[:0]
	for _, w := range km.live {
		if w > m.seen[s][k] {
			live = append(live, w)
		}
	}
	km.live = append(live, id)
	m.seen[s][k] = id
}

// get checks the values session s read from k and records what it saw.
func (m *rmwModel) get(s, k int, got [][]byte) {
	km := &m.keys[k]
	if !km.tainted {
		m.gets++
		m.used = m.used[:0]
		for range got {
			m.used = append(m.used, false)
		}
		lost := 0
		for _, id := range km.live {
			m.buf = appendValue(m.buf[:0], 'k', k, int(id), m.valueSize)
			found := false
			for j, g := range got {
				if !m.used[j] && bytes.Equal(m.buf, g) {
					m.used[j], found = true, true
					break
				}
			}
			if !found {
				lost++
			}
		}
		extra := len(got) - (len(km.live) - lost)
		m.lost += lost
		m.extra += extra
		if (lost > 0 || extra > 0) && m.firstBad == "" {
			m.firstBad = fmt.Sprintf("key %d: read %d siblings, model has %d (%d acked writes missing, %d values not predicted)", k, len(got), len(km.live), lost, extra)
		}
	}
	m.seen[s][k] = km.next
}

// taint marks k unchecked after an op on it failed (its outcome is unknown).
func (m *rmwModel) taint(k int) { m.keys[k].tainted = true }

func (m *rmwModel) ok() bool { return m.lost == 0 && m.extra == 0 }

// siblings returns the model's sibling count for k.
func (m *rmwModel) siblings(k int) int { return len(m.keys[k].live) }

// rmwEvent is one acked operation of a hot-rmw history, recorded for
// replay by the checker's tests.
type rmwEvent struct {
	put     bool
	session int
	key     int
	id      int32    // put: the write id
	got     [][]byte // get: the values read
}

// replayRMW runs a recorded history through a fresh model.
func replayRMW(sessions, keys, valueSize int, events []rmwEvent) *rmwModel {
	m := newRMWModel(sessions, keys, valueSize)
	for _, e := range events {
		if e.put {
			m.put(e.session, e.key, e.id)
		} else {
			m.get(e.session, e.key, e.got)
		}
	}
	return m
}

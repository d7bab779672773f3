// Package difflib ports the similarity-ratio core of Python's difflib
// (SequenceMatcher). The paper's detection scripts "used python difflib"
// to compare the HTTP body fetched directly against the body fetched over
// Tor, flagging a site for manual review when the similarity falls below a
// 0.3-equivalent threshold; this package supplies the identical metric so
// the probe code matches the paper's pipeline.
package difflib

import "strings"

// match is one maximal matching block between sequences a and b.
type match struct{ a, b, size int }

// matcher computes matching blocks between two sequences, following
// Python's SequenceMatcher (without junk heuristics — measurement code
// wants the deterministic exact algorithm). Construction interns the
// elements to dense ids, so the search itself runs on int32 slices carved
// from one allocation and reused by every findLongestMatch call.
type matcher struct {
	// aid is the id of each element of a, or -1 when b lacks it.
	aid []int32
	// The positions in b of id k are pos[start[k]:start[k+1]], ascending.
	start, pos []int32
	// j2len and newj2len hold, at index j+1, the length of the match
	// ending at b[j] for the previous and the current element of a;
	// written and newWritten list the indexes set in each, so clearing
	// touches only those and both stay all-zero between calls.
	j2len, newj2len     []int32
	written, newWritten []int32
}

func newMatcher[E comparable](a, b []E) *matcher {
	ids := make(map[E]int32, len(b))
	nb := len(b)
	m := &matcher{}
	// bid (each b element's id) is scratch space, needed only here.
	bid := make([]int32, nb)
	for j, e := range b {
		id, ok := ids[e]
		if !ok {
			id = int32(len(ids))
			ids[e] = id
		}
		bid[j] = id
	}
	buf := make([]int32, len(a)+len(ids)+1+nb+2*(nb+1)+2*nb)
	carve := func(n int) []int32 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	m.aid, m.start, m.pos = carve(len(a)), carve(len(ids)+1), carve(nb)
	m.j2len, m.newj2len = carve(nb+1), carve(nb+1)
	m.written, m.newWritten = carve(nb)[:0], carve(nb)[:0]

	// Counting sort of b's positions by id: after the fill loop start[k]
	// has advanced to the end of bucket k, so shift it back by one.
	for _, id := range bid {
		m.start[id+1]++
	}
	for k := 1; k < len(m.start); k++ {
		m.start[k] += m.start[k-1]
	}
	for j, id := range bid {
		m.pos[m.start[id]] = int32(j)
		m.start[id]++
	}
	copy(m.start[1:], m.start[:len(m.start)-1])
	m.start[0] = 0

	for i, e := range a {
		if id, ok := ids[e]; ok {
			m.aid[i] = id
		} else {
			m.aid[i] = -1
		}
	}
	return m
}

// findLongestMatch finds the longest matching block in a[alo:ahi] and
// b[blo:bhi], preferring the earliest in a then earliest in b, exactly as
// CPython's implementation does.
func (m *matcher) findLongestMatch(alo, ahi, blo, bhi int) match {
	besti, bestj, bestsize := alo, blo, 0
	for i := alo; i < ahi; i++ {
		m.newWritten = m.newWritten[:0]
		if id := m.aid[i]; id >= 0 {
			for _, j32 := range m.pos[m.start[id]:m.start[id+1]] {
				j := int(j32)
				if j < blo {
					continue
				}
				if j >= bhi {
					break
				}
				k := m.j2len[j] + 1 // index j holds the run ending at b[j-1]
				m.newj2len[j+1] = k
				m.newWritten = append(m.newWritten, j32+1)
				if int(k) > bestsize {
					besti, bestj, bestsize = i-int(k)+1, j-int(k)+1, int(k)
				}
			}
		}
		for _, x := range m.written {
			m.j2len[x] = 0
		}
		m.j2len, m.newj2len = m.newj2len, m.j2len
		m.written, m.newWritten = m.newWritten, m.written
	}
	for _, x := range m.written {
		m.j2len[x] = 0
	}
	m.written = m.written[:0]
	return match{besti, bestj, bestsize}
}

// matched returns the total size of all maximal matching blocks of a
// (length na) and b (length nb), found iteratively (CPython uses an
// explicit queue to avoid recursion depth issues; so do we).
func (m *matcher) matched(na, nb int) int {
	type span struct{ alo, ahi, blo, bhi int }
	var stack [16]span
	queue := append(stack[:0], span{0, na, 0, nb})
	total := 0
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		mt := m.findLongestMatch(s.alo, s.ahi, s.blo, s.bhi)
		if mt.size > 0 {
			total += mt.size
			if s.alo < mt.a && s.blo < mt.b {
				queue = append(queue, span{s.alo, mt.a, s.blo, mt.b})
			}
			if mt.a+mt.size < s.ahi && mt.b+mt.size < s.bhi {
				queue = append(queue, span{mt.a + mt.size, s.ahi, mt.b + mt.size, s.bhi})
			}
		}
	}
	return total
}

// ratio computes 2*M/T where M is the number of matched elements and T the
// total length of both sequences. Two empty sequences are identical (1.0).
func ratio[E comparable](a, b []E) float64 {
	total := len(a) + len(b)
	if total == 0 {
		return 1.0
	}
	matched := newMatcher(a, b).matched(len(a), len(b))
	return 2.0 * float64(matched) / float64(total)
}

// RatioLines compares two texts line-by-line, the granularity the paper's
// scripts used for HTTP bodies.
func RatioLines(a, b string) float64 {
	return ratio(splitLines(a), splitLines(b))
}

// RatioStrings compares two pre-tokenized sequences.
func RatioStrings(a, b []string) float64 { return ratio(a, b) }

// RatioBytes compares two byte slices element-wise (Python's behaviour on
// bytes objects). Quadratic in the worst case; intended for short inputs.
func RatioBytes(a, b []byte) float64 { return ratio(a, b) }

// Similar reports whether the two texts differ by no more than the
// threshold used throughout the paper: difference < threshold, i.e.
// ratio > 1-threshold.
func Similar(a, b string, threshold float64) bool {
	return 1.0-RatioLines(a, b) < threshold
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

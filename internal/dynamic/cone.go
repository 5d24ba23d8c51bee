package dynamic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"hotpotato/internal/graph"
)

// pathCountCap is the saturation point of forward-path counts, the
// same cap paths.RandomForwardPath counts with: path draws weight each
// hop by its (capped) count, so the cap is part of the RNG contract.
const pathCountCap = 1 << 40

// coneIndex answers the two questions a uniform forward-path draw asks
// — "how many forward paths lead from v to d?" and "which d can s
// reach?" — for every pair at once, in memory proportional to the
// reachable pairs rather than |V|² dense tables.
//
// Nodes are numbered by level-major position (level by level, node ID
// order within a level), so the backward cone of a destination d — the
// nodes with a forward path to d — lies in positions below d's level.
// Row d covers the word-aligned position range [lo, lo+span) holding
// its cone (d itself excluded; its count is 1 by definition) in one of
// two forms, whichever is smaller:
//
//   - sparse: a membership bitset with a per-word rank prefix, and one
//     count per member in position order — lookup is a bit test and a
//     popcount;
//   - dense: one count per covered position, zero off the cone.
//
// The dense form costs 8·span ≤ 8·|V| bytes, one row of a dense |V|×|V|
// count table, and a row only takes the sparse form when that is
// smaller, so the index never outgrows such a table.
type coneIndex struct {
	g    *graph.Leveled
	pos  []int32   // node -> level-major position
	rows []coneRow // indexed by destination node
	bits []uint64  // sparse rows' membership words
	rank []int32   // rank[w]: members of the row in its words before w
	cnt  []int64   // every row's counts, row after row

	// dstsOf[s] lists the nodes s reaches forward (s excluded) in
	// ascending node ID: the transpose of the cones, carved from one
	// arena.
	dstsOf [][]graph.NodeID
}

// coneRow locates one destination's cone in the index arenas.
type coneRow struct {
	lo, span int32 // covered positions [lo, lo+span)
	word     int32 // first word in bits/rank; -1 = dense row
	cnt      int32 // first count in cnt
}

// count returns the saturating number of forward paths from v to d —
// exactly g.CountForwardPaths(d, 1<<40)[v], the table
// paths.RandomForwardPath draws from.
func (x *coneIndex) count(v, d graph.NodeID) int64 {
	if v == d {
		return 1
	}
	r := &x.rows[d]
	p := x.pos[v] - r.lo
	if uint32(p) >= uint32(r.span) {
		return 0
	}
	if r.word < 0 {
		return x.cnt[r.cnt+p]
	}
	w := r.word + p>>6
	m, bit := x.bits[w], uint64(1)<<(p&63)
	if m&bit == 0 {
		return 0
	}
	return x.cnt[r.cnt+x.rank[w]+int32(bits.OnesCount64(m&(bit-1)))]
}

// reaches reports whether a packet can travel forward from src to dst:
// the pair is a distinct, forward-connected (source, destination).
func (x *coneIndex) reaches(src, dst graph.NodeID) bool {
	return src != dst && x.count(src, dst) > 0
}

// appendPath draws a forward src→dst path into buf with the exact draw
// sequence of paths.RandomForwardPath: at each hop one rng.Int63n over
// the summed counts of the next hops, in Up-edge order.
func (x *coneIndex) appendPath(rng *rand.Rand, src, dst graph.NodeID, buf []graph.EdgeID) ([]graph.EdgeID, error) {
	g := x.g
	if src == dst {
		return nil, fmt.Errorf("dynamic: src == dst == %d; zero-length routing requests are not packets", src)
	}
	if ls, ld := g.LevelOf(src), g.LevelOf(dst); ld <= ls {
		return nil, fmt.Errorf("dynamic: dst level %d not above src level %d", ld, ls)
	}
	if x.count(src, dst) == 0 {
		return nil, fmt.Errorf("dynamic: node %d cannot reach %d forward", src, dst)
	}
	for cur := src; cur != dst; {
		up := g.Node(cur).Up
		var total int64
		for _, ed := range up {
			total += x.count(g.EndpointAt(ed, graph.Forward), dst)
		}
		pick := rng.Int63n(total)
		for _, ed := range up {
			next := g.EndpointAt(ed, graph.Forward)
			c := x.count(next, dst)
			if pick < c {
				buf = append(buf, ed)
				cur = next
				break
			}
			pick -= c
		}
	}
	return buf, nil
}

// newConeIndex builds the index in two passes over the cones, so every
// arena is allocated once at its exact size. Both passes work in
// position space over flat (CSR) copies of the adjacency, and their
// scratch is one bit and one count per position (9·|V| bytes, L1-sized
// for the service's butterflies).
//
// Pass 1 marks each destination's cone by a downward sweep (a node is
// in the cone iff it is d or a predecessor of a cone node; predecessors
// sit at lower positions, so a descending sweep meets every member
// after everything that marks it) and records the cone's extent, size
// and membership words. Pass 2 fills each row's counts top position
// first — every member sums its Up children's counts, already final one
// level higher — in O(reachable pairs × up-degree), and transposes the
// cones into dstsOf.
func newConeIndex(g *graph.Leveled) (coneIndex, error) {
	nn := g.NumNodes()
	x := coneIndex{g: g, pos: make([]int32, nn), rows: make([]coneRow, nn)}
	at := make([]graph.NodeID, nn) // position -> node
	p := int32(0)
	for l := 0; l <= g.Depth(); l++ {
		for _, v := range g.Level(l) {
			x.pos[v], at[p] = p, v
			p++
		}
	}
	// Position-space adjacency: the Up children (in Up-edge order) and
	// Down parents of the node at each position.
	upOff, downOff := make([]int32, nn+1), make([]int32, nn+1)
	upPos := make([]int32, 0, g.NumEdges())
	downPos := make([]int32, 0, g.NumEdges())
	for q, v := range at {
		for _, ed := range g.Node(v).Up {
			upPos = append(upPos, x.pos[g.EndpointAt(ed, graph.Forward)])
		}
		for _, ed := range g.Node(v).Down {
			downPos = append(downPos, x.pos[g.EndpointAt(ed, graph.Backward)])
		}
		upOff[q+1], downOff[q+1] = int32(len(upPos)), int32(len(downPos))
	}

	// Pass 1: cone extents and membership. memb holds each row's words
	// for [lo, lo+span); row.word points into it until pass 2.
	mark := make([]uint64, (nn+63)/64)
	var memb []uint64
	members := make([]int32, nn) // per destination: cone size (d excluded)
	reach := make([]int32, nn)   // per position: destinations it reaches
	var cntLen, bitLen, pairs int
	for d := graph.NodeID(0); int(d) < nn; d++ {
		pd := x.pos[d]
		if downOff[pd] == downOff[pd+1] {
			continue
		}
		for _, q := range downPos[downOff[pd]:downOff[pd+1]] {
			mark[q>>6] |= 1 << (q & 63)
		}
		lo, hi, c := int32(-1), int32(-1), int32(0)
		for w := (pd - 1) >> 6; w >= 0; w-- {
			for done := uint64(0); ; {
				m := mark[w] &^ done
				if m == 0 {
					break
				}
				b := 63 - int32(bits.LeadingZeros64(m))
				done |= 1 << b
				q := w<<6 + b
				for _, u := range downPos[downOff[q]:downOff[q+1]] {
					mark[u>>6] |= 1 << (u & 63)
				}
				if hi < 0 {
					hi = q
				}
				lo = q
				reach[q]++
				c++
			}
		}
		lo &^= 63
		span := hi + 1 - lo
		words := mark[lo>>6 : hi>>6+1]
		x.rows[d] = coneRow{lo: lo, span: span, word: int32(len(memb))}
		memb = append(memb, words...)
		clear(words)
		if denseRow(span, c) {
			cntLen += int(span)
		} else {
			cntLen += int(c)
			bitLen += len(words)
		}
		members[d] = c
		pairs += int(c)
	}
	if cntLen > math.MaxInt32 || bitLen > math.MaxInt32 {
		return coneIndex{}, fmt.Errorf("dynamic: network too large for the path index (%d path counts)", cntLen)
	}

	// Pass 2: exact arenas, then counts row by row. Rows go in
	// ascending d, so each dstsOf list fills in ascending node ID.
	x.cnt = make([]int64, cntLen)
	x.bits = make([]uint64, bitLen)
	x.rank = make([]int32, bitLen)
	arena := make([]graph.NodeID, pairs)
	fill := make([]int, nn) // per position: next free arena slot
	for q, off := 1, 0; q < nn; q++ {
		off += int(reach[q-1])
		fill[q] = off
	}
	val := make([]int64, nn) // per position: the current row's counts
	var nextCnt, nextWord int32
	for d := graph.NodeID(0); int(d) < nn; d++ {
		r := &x.rows[d]
		if r.span == 0 {
			continue
		}
		mw := memb[r.word : r.word+(r.span+63)>>6]
		r.cnt = nextCnt
		dense := denseRow(r.span, members[d])
		if dense {
			r.word = -1
			nextCnt += r.span
		} else {
			r.word = nextWord
			nextWord += int32(len(mw))
			copy(x.bits[r.word:], mw)
			k := int32(0)
			for i, m := range mw {
				x.rank[r.word+int32(i)] = k
				k += int32(bits.OnesCount64(m))
			}
			nextCnt += members[d]
		}
		pd := x.pos[d]
		val[pd] = 1
		k := r.cnt + members[d] // sparse: one past the next member's count
		for i := len(mw) - 1; i >= 0; i-- {
			for m := mw[i]; m != 0; {
				b := 63 - int32(bits.LeadingZeros64(m))
				m &^= 1 << b
				q := r.lo + int32(i)<<6 + b
				var c int64
				for _, u := range upPos[upOff[q]:upOff[q+1]] {
					c += val[u]
					if c >= pathCountCap {
						c = pathCountCap
						break
					}
				}
				val[q] = c
				if dense {
					x.cnt[r.cnt+q-r.lo] = c
				} else {
					k--
					x.cnt[k] = c
				}
				arena[fill[q]] = d
				fill[q]++
			}
		}
		val[pd] = 0
		clear(val[r.lo : r.lo+r.span])
	}
	x.dstsOf = make([][]graph.NodeID, nn)
	for q, v := range at {
		x.dstsOf[v] = arena[fill[q]-int(reach[q]) : fill[q] : fill[q]]
	}
	return x, nil
}

// denseRow reports whether a row covering span positions with c cone
// members is smaller dense (8 bytes per position) than sparse (8 bytes
// per member plus 12 bytes of bitset and rank per 64 positions).
func denseRow(span, c int32) bool {
	words := int64(span+63) >> 6
	return 8*int64(span) <= 8*int64(c)+12*words
}

// Package paths selects preselected forward paths on leveled networks
// and analyzes their congestion C and dilation D — the two parameters
// that drive every bound in the paper. Path selection happens before
// routing begins (paper footnote 2: "The packet paths are selected
// before the routing begins"); this package is that preprocessing step.
package paths

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/graph"
)

// PathSet is a collection of preselected paths, one per packet, indexed
// by packet number.
type PathSet struct {
	G     *graph.Leveled
	Paths []graph.Path
}

// NewPathSet wraps paths over g.
func NewPathSet(g *graph.Leveled, ps []graph.Path) *PathSet {
	return &PathSet{G: g, Paths: ps}
}

// Validate checks every path is a valid forward path.
func (s *PathSet) Validate() error {
	for i, p := range s.Paths {
		if len(p) == 0 {
			return fmt.Errorf("paths: path %d is empty", i)
		}
		if err := s.G.ValidatePath(p); err != nil {
			return fmt.Errorf("paths: path %d: %w", i, err)
		}
	}
	return nil
}

// Congestion returns C: the maximum number of paths crossing any single
// edge (paper Section 1.1).
func (s *PathSet) Congestion() int {
	load := make([]int, s.G.NumEdges())
	c := 0
	for _, p := range s.Paths {
		for _, e := range p {
			load[e]++
			if load[e] > c {
				c = load[e]
			}
		}
	}
	return c
}

// EdgeLoads returns the per-edge path counts.
func (s *PathSet) EdgeLoads() []int {
	load := make([]int, s.G.NumEdges())
	for _, p := range s.Paths {
		for _, e := range p {
			load[e]++
		}
	}
	return load
}

// Dilation returns D: the maximum path length.
func (s *PathSet) Dilation() int {
	d := 0
	for _, p := range s.Paths {
		if len(p) > d {
			d = len(p)
		}
	}
	return d
}

// LowerBound returns the trivial routing lower bound max(C, D); the
// paper states the bound as Ω(C + D), and C+D <= 2*max(C,D).
func (s *PathSet) LowerBound() int {
	c, d := s.Congestion(), s.Dilation()
	if c > d {
		return c
	}
	return d
}

// Sources returns the source node of every path.
func (s *PathSet) Sources() []graph.NodeID {
	out := make([]graph.NodeID, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = s.G.PathSource(p)
	}
	return out
}

// Destinations returns the destination node of every path.
func (s *PathSet) Destinations() []graph.NodeID {
	out := make([]graph.NodeID, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = s.G.PathDest(p)
	}
	return out
}

// CheckOnePacketPerSource verifies the paper's many-to-one problem
// restriction: each node is the source of at most one packet.
func (s *PathSet) CheckOnePacketPerSource() error {
	seen := make(map[graph.NodeID]int)
	for i, p := range s.Paths {
		src := s.G.PathSource(p)
		if j, dup := seen[src]; dup {
			return fmt.Errorf("paths: node %d is the source of packets %d and %d", src, j, i)
		}
		seen[src] = i
	}
	return nil
}

// RandomForwardPath samples a forward path from src to dst. Sampling is
// proportional to the number of forward paths through each next hop
// (computed by counting with saturation at 2^40), which is exactly
// uniform over all forward src->dst paths whenever counts do not
// saturate: one rng.Int63n per hop, over the next hops' summed counts
// in Up-edge order. Returns an error if dst is not forward-reachable
// from src.
func RandomForwardPath(g *graph.Leveled, rng *rand.Rand, src, dst graph.NodeID) (graph.Path, error) {
	if src == dst {
		return nil, fmt.Errorf("paths: src == dst == %d; zero-length routing requests are not packets", src)
	}
	ls, ld := g.Node(src).Level, g.Node(dst).Level
	if ld <= ls {
		return nil, fmt.Errorf("paths: dst level %d not above src level %d", ld, ls)
	}
	cnt := g.CountForwardPaths(dst, 1<<40)
	if cnt[src] == 0 {
		return nil, fmt.Errorf("paths: node %d cannot reach %d forward", src, dst)
	}
	p := make(graph.Path, 0, ld-ls)
	for cur := src; cur != dst; {
		var total int64
		for _, e := range g.Node(cur).Up {
			total += cnt[g.Edge(e).To]
		}
		pick := rng.Int63n(total)
		for _, e := range g.Node(cur).Up {
			c := cnt[g.Edge(e).To]
			if pick < c {
				p = append(p, e)
				cur = g.Edge(e).To
				break
			}
			pick -= c
		}
	}
	return p, nil
}

// GreedyMinCongestionPath builds a forward path from src to dst that at
// each hop picks the feasible next edge with the smallest current load
// (given in loads, which the caller accumulates across calls). Ties are
// broken uniformly at random. The caller must ensure dst is reachable.
func GreedyMinCongestionPath(g *graph.Leveled, rng *rand.Rand, loads []int, src, dst graph.NodeID) (graph.Path, error) {
	if len(loads) != g.NumEdges() {
		return nil, fmt.Errorf("paths: loads length %d != edges %d", len(loads), g.NumEdges())
	}
	reach := g.Reachable(dst)
	if !reach[src] {
		return nil, fmt.Errorf("paths: node %d cannot reach %d forward", src, dst)
	}
	ls, ld := g.Node(src).Level, g.Node(dst).Level
	if ld <= ls {
		return nil, fmt.Errorf("paths: dst level %d not above src level %d", ld, ls)
	}
	p := make(graph.Path, 0, ld-ls)
	cur := src
	for cur != dst {
		best := graph.NoEdge
		bestLoad := int(^uint(0) >> 1)
		ties := 0
		for _, e := range g.Node(cur).Up {
			if !reach[g.Edge(e).To] {
				continue
			}
			switch l := loads[e]; {
			case l < bestLoad:
				best, bestLoad, ties = e, l, 1
			case l == bestLoad:
				ties++
				if rng.Intn(ties) == 0 {
					best = e
				}
			}
		}
		if best == graph.NoEdge {
			return nil, fmt.Errorf("paths: stuck at node %d heading to %d", cur, dst)
		}
		loads[best]++
		p = append(p, best)
		cur = g.Edge(best).To
	}
	return p, nil
}

// SelectRandom builds a PathSet with one random forward path per
// (src, dst) request.
func SelectRandom(g *graph.Leveled, rng *rand.Rand, reqs []Request) (*PathSet, error) {
	ps := make([]graph.Path, len(reqs))
	for i, r := range reqs {
		p, err := RandomForwardPath(g, rng, r.Src, r.Dst)
		if err != nil {
			return nil, fmt.Errorf("paths: request %d: %w", i, err)
		}
		ps[i] = p
	}
	return NewPathSet(g, ps), nil
}

// SelectMinCongestion builds a PathSet greedily minimizing congestion,
// processing requests in a random order to avoid order bias.
func SelectMinCongestion(g *graph.Leveled, rng *rand.Rand, reqs []Request) (*PathSet, error) {
	ps := make([]graph.Path, len(reqs))
	loads := make([]int, g.NumEdges())
	order := rng.Perm(len(reqs))
	for _, i := range order {
		p, err := GreedyMinCongestionPath(g, rng, loads, reqs[i].Src, reqs[i].Dst)
		if err != nil {
			return nil, fmt.Errorf("paths: request %d: %w", i, err)
		}
		ps[i] = p
	}
	return NewPathSet(g, ps), nil
}

// SelectValiant builds a PathSet with Valiant's random-intermediate
// trick: each packet routes src -> R -> dst where R is drawn uniformly
// from the nodes at the middle level between src and dst that are
// forward-reachable from src and forward-reach dst. Randomizing the
// middle spreads structured (adversarial) workloads, trading a little
// dilation for much lower worst-case congestion.
func SelectValiant(g *graph.Leveled, rng *rand.Rand, reqs []Request) (*PathSet, error) {
	ps := make([]graph.Path, len(reqs))
	for i, r := range reqs {
		ls, ld := g.Node(r.Src).Level, g.Node(r.Dst).Level
		if ld <= ls {
			return nil, fmt.Errorf("paths: request %d: dst level %d not above src level %d", i, ld, ls)
		}
		midLevel := (ls + ld) / 2
		fromSrc := g.ForwardReachableFrom(r.Src)
		toDst := g.Reachable(r.Dst)
		var mids []graph.NodeID
		for _, v := range g.Level(midLevel) {
			if fromSrc[v] && toDst[v] {
				mids = append(mids, v)
			}
		}
		if len(mids) == 0 {
			return nil, fmt.Errorf("paths: request %d: no usable intermediate at level %d", i, midLevel)
		}
		mid := mids[rng.Intn(len(mids))]
		var p graph.Path
		if mid != r.Src {
			p1, err := RandomForwardPath(g, rng, r.Src, mid)
			if err != nil {
				return nil, fmt.Errorf("paths: request %d: %w", i, err)
			}
			p = append(p, p1...)
		}
		if mid != r.Dst {
			p2, err := RandomForwardPath(g, rng, mid, r.Dst)
			if err != nil {
				return nil, fmt.Errorf("paths: request %d: %w", i, err)
			}
			p = append(p, p2...)
		}
		ps[i] = p
	}
	return NewPathSet(g, ps), nil
}

// Request is a (source, destination) routing request.
type Request struct {
	Src, Dst graph.NodeID
}

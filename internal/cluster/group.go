package cluster

import "fmt"

// NodeGroup declares one named node group — a region's machines — for
// NewGrouped. Capacities follow the same convention as New.
type NodeGroup struct {
	Name       string
	Capacities []float64
}

// group is the runtime state of one node group: its members, a group-scoped
// free-capacity index (same treap, same node slots, only members linked), and
// incrementally maintained capacity aggregates mirroring the cluster-wide
// ones. Place, Release and SetDown keep both levels in step, so a
// group-restricted placement query stays O(log n).
type group struct {
	name  string
	nodes []*Node

	idx       freeIndex
	availCap  float64 // capacity summed over up members
	usedUp    float64 // used CPUs summed over up members
	downCount int
}

// largestFree reports the biggest free fragment on any up member.
func (g *group) largestFree() float64 {
	if m := g.idx.max(); m != -1 {
		return g.idx.freeOf(m)
	}
	return 0
}

// NewGrouped builds an indexed cluster partitioned into named node groups.
// Nodes are named "<group>-<j>" (j counting within the group); the flat node
// order is declaration order, so the global placement tie-break prefers
// earlier-declared groups exactly as New prefers earlier capacities. Grouped
// clusters always run the maintained index (there is no linear reference for
// group-restricted placement).
func NewGrouped(strategy Strategy, specs ...NodeGroup) *Cluster {
	if len(specs) == 0 {
		panic("cluster: no node groups")
	}
	var caps []float64
	for _, gs := range specs {
		caps = append(caps, gs.Capacities...)
	}
	c := build(strategy, false, caps)
	c.groupByName = make(map[string]*group, len(specs))
	i := 0
	for _, gs := range specs {
		if gs.Name == "" {
			panic("cluster: empty group name")
		}
		if len(gs.Capacities) == 0 {
			panic(fmt.Sprintf("cluster: group %q has no nodes", gs.Name))
		}
		if _, dup := c.groupByName[gs.Name]; dup {
			panic(fmt.Sprintf("cluster: duplicate group %q", gs.Name))
		}
		g := &group{name: gs.Name}
		g.idx.init(len(c.nodes), strategy == WorstFit)
		for range gs.Capacities {
			n := c.nodes[i]
			delete(c.byName, n.Name)
			n.Name = fmt.Sprintf("%s-%d", gs.Name, len(g.nodes))
			c.byName[n.Name] = n
			n.g = g
			g.nodes = append(g.nodes, n)
			g.idx.insert(n.i, n.Capacity)
			g.availCap += n.Capacity
			i++
		}
		c.groups = append(c.groups, g)
		c.groupByName[gs.Name] = g
	}
	return c
}

// Group reports the node's group name ("" on ungrouped clusters).
func (n *Node) Group() string {
	if n.g == nil {
		return ""
	}
	return n.g.name
}

// GroupNodes lists a group's members (callers must not mutate), or nil for an
// unknown group.
func (c *Cluster) GroupNodes(name string) []*Node {
	if g := c.groupByName[name]; g != nil {
		return g.nodes
	}
	return nil
}

// GroupUsed sums allocated CPUs on a group's up members.
func (c *Cluster) GroupUsed(name string) float64 {
	if g := c.groupByName[name]; g != nil {
		return g.usedUp
	}
	return 0
}

// PlaceIn allocates cpus on an up node of the named group, with the same
// strategy and deterministic tie-break as Place. O(log n) via the group's own
// free-capacity index; the ErrNoCapacity diagnostic is group-scoped.
func (c *Cluster) PlaceIn(name string, cpus float64) (Placement, error) {
	if cpus <= 0 {
		panic("cluster: non-positive placement")
	}
	if c.linear {
		panic("cluster: PlaceIn on a reference (linear) cluster")
	}
	g := c.groupByName[name]
	if g == nil {
		return Placement{}, fmt.Errorf("cluster: unknown node group %q", name)
	}
	var pick int32 = -1
	switch c.strategy {
	case BestFit:
		pick = g.idx.ceil(cpus - fitEps)
	case WorstFit:
		if m := g.idx.max(); m != -1 && g.idx.freeOf(m) >= cpus-fitEps {
			pick = m
		}
	}
	if pick == -1 {
		return Placement{}, ErrNoCapacity{
			CPUs:        cpus,
			Group:       name,
			LargestFree: g.largestFree(),
			TotalFree:   g.availCap - g.usedUp,
			DownNodes:   g.downCount,
		}
	}
	return c.commitPlace(c.nodes[pick], cpus), nil
}

package netsim

// ReferencePath is the canonical path rule walked directly over the
// adjacency lists: from a, step to the lowest-ID neighbour one hop closer
// to b until b is reached. Nil if a and b are disconnected. The path
// arena is checked against it.
func (n *Network) ReferencePath(a, b int) []int32 {
	R := len(n.routers)
	if n.dist[a*R+b] < 0 {
		return nil
	}
	cur := int32(a)
	path := []int32{cur}
	for cur != int32(b) {
		dc := n.dist[b*R+int(cur)]
		for _, e := range n.adj[cur] {
			if n.dist[b*R+e.to] == dc-1 {
				cur = int32(e.to)
				break
			}
		}
		path = append(path, cur)
	}
	return path
}

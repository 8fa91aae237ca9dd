// Package topology provides the PoP-level network substrate behind the
// paper's distance heuristics (§4.1.1): city coordinates with
// great-circle distances, link graphs, and shortest-path routing. The EU
// ISP's flow distance is the geographic distance between entry and exit
// PoPs; Internet2's is the sum of traversed link lengths on the routed
// path; the CDN's is the geographic distance from an origin PoP to the
// GeoIP position of the destination.
package topology

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
)

// EarthRadiusMiles is the mean Earth radius in statute miles.
const EarthRadiusMiles = 3958.8

// City is a named location with coordinates.
type City struct {
	Name    string
	Country string
	Lat     float64
	Lon     float64
}

// HaversineMiles returns the great-circle distance between two coordinate
// pairs in miles.
func HaversineMiles(lat1, lon1, lat2, lon2 float64) float64 {
	const degToRad = math.Pi / 180
	phi1 := lat1 * degToRad
	phi2 := lat2 * degToRad
	dPhi := (lat2 - lat1) * degToRad
	dLam := (lon2 - lon1) * degToRad
	a := math.Sin(dPhi/2)*math.Sin(dPhi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dLam/2)*math.Sin(dLam/2)
	return 2 * EarthRadiusMiles * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Distance returns the great-circle distance between two cities in miles.
func Distance(a, b City) float64 {
	return HaversineMiles(a.Lat, a.Lon, b.Lat, b.Lon)
}

// Graph is a PoP graph: cities (nodes) connected by undirected links whose
// lengths default to the great-circle distance between endpoints.
type Graph struct {
	cities []City
	index  map[string]int
	adj    [][]edge // adjacency list, parallel to cities
}

type edge struct {
	to     int
	length float64
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddCity registers a PoP. City names must be unique.
func (g *Graph) AddCity(c City) error {
	if c.Name == "" {
		return errors.New("topology: city needs a name")
	}
	if _, dup := g.index[c.Name]; dup {
		return fmt.Errorf("topology: duplicate city %q", c.Name)
	}
	g.index[c.Name] = len(g.cities)
	g.cities = append(g.cities, c)
	g.adj = append(g.adj, nil)
	return nil
}

// AddLink connects two registered cities with an undirected link of
// great-circle length.
func (g *Graph) AddLink(a, b string) error {
	ia, ok := g.index[a]
	if !ok {
		return fmt.Errorf("topology: unknown city %q", a)
	}
	ib, ok := g.index[b]
	if !ok {
		return fmt.Errorf("topology: unknown city %q", b)
	}
	if ia == ib {
		return fmt.Errorf("topology: self link at %q", a)
	}
	length := Distance(g.cities[ia], g.cities[ib])
	g.adj[ia] = append(g.adj[ia], edge{to: ib, length: length})
	g.adj[ib] = append(g.adj[ib], edge{to: ia, length: length})
	return nil
}

// City returns a registered city by name.
func (g *Graph) City(name string) (City, bool) {
	i, ok := g.index[name]
	if !ok {
		return City{}, false
	}
	return g.cities[i], true
}

// Cities returns all registered cities sorted by name.
func (g *Graph) Cities() []City {
	out := append([]City(nil), g.cities...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of cities.
func (g *Graph) Len() int { return len(g.cities) }

// Path is a routed path through the graph.
type Path struct {
	// Cities is the sequence of PoP names from source to destination.
	Cities []string
	// Miles is the total link length along the path — the paper's
	// Internet2 flow-distance heuristic.
	Miles float64
}

// ShortestPath returns the minimum-length path between two cities using
// Dijkstra's algorithm.
func (g *Graph) ShortestPath(from, to string) (Path, error) {
	src, ok := g.index[from]
	if !ok {
		return Path{}, fmt.Errorf("topology: unknown city %q", from)
	}
	dst, ok := g.index[to]
	if !ok {
		return Path{}, fmt.Errorf("topology: unknown city %q", to)
	}
	if src == dst {
		return Path{Cities: []string{from}, Miles: 0}, nil
	}

	dist := make([]float64, len(g.cities))
	prev := make([]int, len(g.cities))
	done := make([]bool, len(g.cities))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &distHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, e := range g.adj[u] {
			if alt := dist[u] + e.length; alt < dist[e.to] {
				dist[e.to] = alt
				prev[e.to] = u
				heap.Push(pq, distItem{node: e.to, dist: alt})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, fmt.Errorf("topology: no path from %q to %q", from, to)
	}
	var names []string
	for u := dst; u != -1; u = prev[u] {
		names = append(names, g.cities[u].Name)
	}
	for l, r := 0, len(names)-1; l < r; l, r = l+1, r-1 {
		names[l], names[r] = names[r], names[l]
	}
	return Path{Cities: names, Miles: dist[dst]}, nil
}

// PairDistances returns the shortest-path distance between every ordered
// pair of distinct cities, keyed by [2]string{from, to}: the all-pairs
// view that metric properties such as the triangle inequality are checked
// against.
func (g *Graph) PairDistances() (map[[2]string]float64, error) {
	out := make(map[[2]string]float64)
	for _, a := range g.cities {
		for _, b := range g.cities {
			if a.Name == b.Name {
				continue
			}
			p, err := g.ShortestPath(a.Name, b.Name)
			if err != nil {
				return nil, err
			}
			out[[2]string{a.Name, b.Name}] = p.Miles
		}
	}
	return out, nil
}

// distItem and distHeap implement the Dijkstra priority queue.
type distItem struct {
	node int
	dist float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

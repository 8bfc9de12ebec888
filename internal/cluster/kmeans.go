// Package cluster implements the segment-grouping machinery of server-side
// dcSR (paper §3.1.2): Lloyd's k-means, the global k-means algorithm of
// Likas, Vlassis & Verbeek (2003) used to avoid local optima, the
// silhouette coefficient (Rousseeuw 1987) for choosing K, and the
// model-size-constrained K selection of paper Eq. 2–3.
package cluster

import (
	"fmt"
	"math"
)

// Result is a clustering of N points into K clusters.
type Result struct {
	K         int
	Centroids [][]float64
	Assign    []int   // len N, cluster index per point
	Inertia   float64 // sum of squared distances to assigned centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return s
}

// assignAll assigns every point to its nearest centroid and returns inertia.
func assignAll(points, centroids [][]float64, assign []int) float64 {
	var inertia float64
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			if d := sqDist(p, cen); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		inertia += bestD
	}
	return inertia
}

// lloyd runs standard k-means iterations from the given initial centroids
// until convergence (assignments stable) or maxIter.
func lloyd(points [][]float64, centroids [][]float64, maxIter int) *Result {
	n := len(points)
	k := len(centroids)
	dim := len(points[0])
	assign := make([]int, n)
	cents := make([][]float64, k)
	for i := range cents {
		cents[i] = append([]float64(nil), centroids[i]...)
	}
	var inertia float64
	for iter := 0; iter < maxIter; iter++ {
		inertia = assignAll(points, cents, assign)
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for i := range next {
			next[i] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				next[c][j] += v
			}
		}
		moved := false
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Empty cluster: re-seed at the point farthest from its centroid.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, cents[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(next[c], points[far])
				moved = true
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
			if sqDist(next[c], cents[c]) > 1e-12 {
				moved = true
			}
		}
		cents = next
		if !moved {
			break
		}
	}
	inertia = assignAll(points, cents, assign)
	return &Result{K: k, Centroids: cents, Assign: assign, Inertia: inertia}
}

// KMeans runs Lloyd's algorithm with deterministic k-means++-style seeding
// (farthest-point heuristic from the dataset mean).
func KMeans(points [][]float64, k, maxIter int) (*Result, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	// Deterministic seeding: first centroid = dataset mean's nearest point,
	// then repeatedly add the point farthest from all chosen centroids.
	dim := len(points[0])
	mean := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(points))
	}
	first, firstD := 0, math.Inf(1)
	for i, p := range points {
		if d := sqDist(p, mean); d < firstD {
			first, firstD = i, d
		}
	}
	cents := [][]float64{append([]float64(nil), points[first]...)}
	for len(cents) < k {
		far, farD := 0, -1.0
		for i, p := range points {
			near := math.Inf(1)
			for _, c := range cents {
				if d := sqDist(p, c); d < near {
					near = d
				}
			}
			if near > farD {
				far, farD = i, near
			}
		}
		cents = append(cents, append([]float64(nil), points[far]...))
	}
	return lloyd(points, cents, maxIter), nil
}

// GlobalKMeans implements the incremental global k-means algorithm: the
// solution for k clusters is built from the solution for k−1 by trying
// every data point as the k-th initial centroid and keeping the best
// converged result. This deterministic procedure avoids the local optima
// Lloyd's algorithm can fall into (paper §3.1.2).
func GlobalKMeans(points [][]float64, k, maxIter int) (*Result, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	n := len(points)
	dim := len(points[0])
	// k = 1: centroid is the mean.
	mean := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	best := lloyd(points, [][]float64{mean}, maxIter)
	for kk := 2; kk <= k; kk++ {
		var bestNext *Result
		for i := 0; i < n; i++ {
			init := make([][]float64, 0, kk)
			for _, c := range best.Centroids {
				init = append(init, append([]float64(nil), c...))
			}
			init = append(init, append([]float64(nil), points[i]...))
			r := lloyd(points, init, maxIter)
			if bestNext == nil || r.Inertia < bestNext.Inertia {
				bestNext = r
			}
		}
		best = bestNext
	}
	// The greedy increment is deterministic but not guaranteed to dominate
	// a well-seeded direct run; taking the better of the two makes
	// GlobalKMeans never worse than KMeans while staying deterministic.
	if direct, err := KMeans(points, k, maxIter); err == nil && direct.Inertia < best.Inertia {
		best = direct
	}
	return best, nil
}

func validate(points [][]float64, k int) error {
	if len(points) == 0 {
		return fmt.Errorf("cluster: no points")
	}
	if k < 1 {
		return fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if k > len(points) {
		return fmt.Errorf("cluster: k=%d exceeds %d points", k, len(points))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	return nil
}

package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// blobs generates k well-separated Gaussian clusters of n points each.
func blobs(rng *rand.Rand, k, n, dim int, sep float64) (points [][]float64, truth []int) {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64(c) * sep * float64(d%2*2-1)
		}
		centers[c][0] = float64(c) * sep
	}
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = centers[c][d] + rng.NormFloat64()*0.3
			}
			points = append(points, p)
			truth = append(truth, c)
		}
	}
	return points, truth
}

// agree checks whether assign matches truth up to label permutation, by
// verifying every truth-cluster maps to a single assigned label.
func agree(truth, assign []int) bool {
	m := map[int]int{}
	for i, tl := range truth {
		al, ok := m[tl]
		if !ok {
			m[tl] = assign[i]
			continue
		}
		if al != assign[i] {
			return false
		}
	}
	// And distinct truth clusters map to distinct labels.
	seen := map[int]bool{}
	for _, al := range m {
		if seen[al] {
			return false
		}
		seen[al] = true
	}
	return true
}

func TestKMeansRecoverssBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, truth := blobs(rng, 3, 15, 4, 10)
	r, err := KMeans(points, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !agree(truth, r.Assign) {
		t.Fatalf("k-means failed to recover well-separated blobs: %v", r.Assign)
	}
}

func TestGlobalKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points, truth := blobs(rng, 4, 10, 3, 8)
	r, err := GlobalKMeans(points, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !agree(truth, r.Assign) {
		t.Fatalf("global k-means failed on blobs: %v", r.Assign)
	}
	if r.K != 4 || len(r.Centroids) != 4 {
		t.Fatalf("K = %d with %d centroids, want 4", r.K, len(r.Centroids))
	}
}

func TestGlobalKMeansInertiaMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points, _ := blobs(rng, 3, 8, 3, 5)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		r, err := GlobalKMeans(points, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Inertia > prev+1e-9 {
			t.Fatalf("inertia rose from %.4f to %.4f at k=%d", prev, r.Inertia, k)
		}
		prev = r.Inertia
	}
}

func TestGlobalKMeansNotWorseThanLloyd(t *testing.T) {
	// The defining property (paper §3.1.2): global k-means avoids the local
	// optima plain Lloyd can fall into, so its inertia is never worse.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nblobs := 2 + int(uint64(seed)%3)
		sep := 3 + float64(uint64(seed)%5)
		points, _ := blobs(rng, nblobs, 6, 2, sep)
		k := 3
		if len(points) < k {
			return true
		}
		g, err := GlobalKMeans(points, k, 0)
		if err != nil {
			return false
		}
		l, err := KMeans(points, k, 0)
		if err != nil {
			return false
		}
		return g.Inertia <= l.Inertia+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, 2, 0); err == nil {
		t.Error("accepted empty points")
	}
	pts := [][]float64{{1, 2}, {3, 4}}
	if _, err := KMeans(pts, 0, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := KMeans(pts, 3, 0); err == nil {
		t.Error("accepted k > n")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, 1, 0); err == nil {
		t.Error("accepted ragged dimensions")
	}
}

func TestSilhouetteSeparatedVsOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sepPts, sepTruth := blobs(rng, 3, 10, 3, 20)
	s1, err := Silhouette(sepPts, sepTruth, 3)
	if err != nil {
		t.Fatal(err)
	}
	ovlPts, ovlTruth := blobs(rng, 3, 10, 3, 0.2)
	s2, err := Silhouette(ovlPts, ovlTruth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s1 < 0.8 {
		t.Errorf("separated blobs silhouette %.3f < 0.8", s1)
	}
	if s2 >= s1 {
		t.Errorf("overlapping silhouette %.3f >= separated %.3f", s2, s1)
	}
	if s1 > 1.0001 || s1 < -1.0001 {
		t.Errorf("silhouette out of [-1,1]: %v", s1)
	}
}

func TestSilhouetteValidation(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	if _, err := Silhouette(pts, []int{0, 0, 0}, 1); err == nil {
		t.Error("accepted k=1")
	}
	if _, err := Silhouette(pts, []int{0, 1}, 2); err == nil {
		t.Error("accepted short assign")
	}
	if _, err := Silhouette(pts, []int{0, 1, 5}, 2); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestSweepKPeaksAtTrueK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points, _ := blobs(rng, 4, 8, 3, 15)
	sweeps, err := SweepK(points, 8)
	if err != nil {
		t.Fatal(err)
	}
	best := sweeps[0]
	for _, s := range sweeps {
		if s.Silhouette > best.Silhouette {
			best = s
		}
	}
	if best.K != 4 {
		t.Fatalf("silhouette peaked at K=%d, want 4", best.K)
	}
}

func TestSelectKHonorsSizeConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points, _ := blobs(rng, 6, 6, 3, 15)
	// Constraint allows at most 3 micro models.
	res, sweeps, err := SelectK(points, 3000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Fatalf("SelectK chose K=%d beyond constraint 3", res.K)
	}
	for _, s := range sweeps {
		if s.K > 3 {
			t.Fatalf("sweep explored K=%d beyond constraint", s.K)
		}
	}
	if _, _, err := SelectK(points, 3000, 0); err == nil {
		t.Error("accepted zero minimum model size")
	}
}

func TestSelectKUnconstrainedFindsTrueK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points, truth := blobs(rng, 3, 10, 4, 12)
	res, _, err := SelectK(points, 1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("SelectK found K=%d, want 3", res.K)
	}
	if !agree(truth, res.Assign) {
		t.Fatal("assignment does not match generative structure")
	}
}

func TestEmptyClusterReseeded(t *testing.T) {
	// Points where a naive centroid update could empty a cluster must
	// still produce k non-empty clusters.
	points := [][]float64{{0}, {0.1}, {0.2}, {10}, {10.1}, {20}}
	r, err := GlobalKMeans(points, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	labels := slices.Clone(r.Assign)
	slices.Sort(labels)
	if labels = slices.Compact(labels); len(labels) != 3 {
		t.Fatalf("points fill clusters %v, want all 3", labels)
	}
}

package tensor

// MatMul computes out(m×n) = a(m×k) * b(k×n). The out slice must have
// length m*n; it is fully overwritten.
func MatMul(a, b, out []float32, m, k, n int) { matmul(a, b, out, m, k, n) }

// MatMulAT computes out(k×n) = aᵀ * b where a is (m×k) and b is (m×n),
// i.e. out[r][j] = Σ_i a[i][r] * b[i][j]. The out slice is overwritten.
func MatMulAT(a, b, out []float32, m, k, n int) { matmulTA(a, b, out, m, k, n) }

// MatMulBT computes out(m×k) = a(m×n) * bᵀ where b is (k×n),
// i.e. out[i][r] = Σ_j a[i][j] * b[r][j]. The out slice is overwritten.
func MatMulBT(a, b, out []float32, m, n, k int) { matmulBT(a, b, out, m, n, k) }

// ParallelFor runs fn over disjoint chunks of [0, n) on all available CPUs
// and waits for completion. It is exported for use by other internal
// packages with embarrassingly parallel per-row work (color conversion,
// motion search, SSIM windows).
func ParallelFor(n int, fn func(lo, hi int)) { parallelFor(n, fn) }

//! Singular value decomposition.
//!
//! Algorithm 1 of the paper computes a *full SVD* of the mean-centered
//! signature matrix of each local schema. Signature matrices here are
//! short-and-wide (`n` elements × 768 embedding dimensions, with `n` from a
//! handful up to a few hundred), so two implementations are provided:
//!
//! - [`Svd::jacobi`] — one-sided (Hestenes) Jacobi rotation SVD. Simple,
//!   robust, accurate; the reference implementation.
//! - [`Svd::gram`] — the economy path: eigendecompose the smaller Gram
//!   matrix (`A·Aᵀ` when `n ≤ d`, `Aᵀ·A` otherwise) with
//!   [`symmetric_eigen`] and recover the other factor. Much faster for the
//!   `n ≪ d` signature case.
//!
//! [`Svd::compute`] dispatches to the faster path; a property test in this
//! module (and an ablation bench in `cs-bench`) pins the two paths to agree.
//!
//! # The symmetric eigensolver
//!
//! [`symmetric_eigen`] is Householder tridiagonalization followed by
//! implicit-shift QL — EISPACK's `tred2` / `tql2` pair. The eigenvector
//! basis is stored transposed (one eigenvector per contiguous row), so
//! every Householder update and every QL plane rotation streams through
//! memory instead of striding down a column. The arithmetic is
//! `+ − × ÷ sqrt` only (no `hypot`, no fused multiply-add), so the bits
//! never depend on the platform's libm. Each eigenvalue gets at most 30
//! QL iterations.
//!
//! Output convention: eigenvalues descending (a stable sort under
//! [`total_cmp_f64`]), and each eigenvector signed so that its
//! largest-magnitude entry is positive, the lowest index winning an exact
//! tie. Reconstruction errors do not depend on the sign, but anything that
//! hashes signed coordinates (the ANN prefilter's PCA projection) does, so
//! the sign is part of the contract.
//!
//! The cyclic Jacobi eigensolver this replaced survives only inside this
//! module's tests, as the oracle the QL solver is property-checked
//! against.

use crate::matrix::dot;
use crate::vecops::total_cmp_f64;
use crate::Matrix;

/// Thin SVD factorization `A = U · diag(σ) · Vᵀ` with `r = min(rows, cols)`
/// retained components, singular values sorted in descending order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `rows × r` (columns are `u_i`).
    pub u: Matrix,
    /// Singular values `σ_1 ≥ σ_2 ≥ … ≥ σ_r ≥ 0`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors transposed, `r × cols` (rows are `v_iᵀ`).
    pub vt: Matrix,
}

/// Errors reported by the SVD routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvdError {
    /// The input matrix has zero rows or zero columns.
    EmptyMatrix,
    /// The input contains NaN or infinite entries.
    NonFiniteInput,
}

impl std::fmt::Display for SvdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvdError::EmptyMatrix => write!(f, "cannot decompose an empty matrix"),
            SvdError::NonFiniteInput => write!(f, "matrix contains NaN or infinite entries"),
        }
    }
}

impl std::error::Error for SvdError {}

impl Svd {
    /// Computes the thin SVD, dispatching to the cheaper algorithm for the
    /// matrix shape: Gram path when one side is much smaller, one-sided
    /// Jacobi otherwise.
    pub fn compute(a: &Matrix) -> Result<Svd, SvdError> {
        validate(a)?;
        let (n, d) = a.shape();
        if prefers_gram(n, d) {
            Self::gram(a)
        } else {
            Self::jacobi(a)
        }
    }

    /// One-sided (Hestenes) Jacobi SVD: orthogonalizes the columns of `A`
    /// by plane rotations accumulated into `V`.
    pub fn jacobi(a: &Matrix) -> Result<Svd, SvdError> {
        validate(a)?;
        let (n, d) = a.shape();
        // Work on the columns of A: w_j ∈ R^n. Store column-major for
        // cache-friendly column rotations.
        let mut w: Vec<Vec<f64>> = (0..d).map(|j| a.col(j)).collect();
        let mut v: Vec<Vec<f64>> = (0..d)
            .map(|j| {
                let mut e = vec![0.0; d];
                e[j] = 1.0;
                e
            })
            .collect();

        let scale = a.frobenius_norm();
        let tol = if scale > 0.0 {
            1e-14 * scale * scale
        } else {
            0.0
        };
        let max_sweeps = 60;
        for _ in 0..max_sweeps {
            let mut off = 0.0f64;
            for p in 0..d {
                for q in (p + 1)..d {
                    let alpha = dot(&w[p], &w[p]);
                    let beta = dot(&w[q], &w[q]);
                    let gamma = dot(&w[p], &w[q]);
                    off = off.max(gamma.abs());
                    if gamma.abs() <= tol || alpha == 0.0 || beta == 0.0 {
                        continue;
                    }
                    // Rotation zeroing the (p,q) entry of WᵀW.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    rotate_pair(&mut w, p, q, c, s);
                    rotate_pair(&mut v, p, q, c, s);
                }
            }
            if off <= tol.max(1e-300) {
                break;
            }
        }

        // Singular values are the column norms; sort descending.
        let mut order: Vec<usize> = (0..d).collect();
        let norms: Vec<f64> = w.iter().map(|col| dot(col, col).sqrt()).collect();
        order.sort_by(|&i, &j| total_cmp_f64(&norms[j], &norms[i]));

        let r = n.min(d);
        let mut u = Matrix::zeros(n, r);
        let mut vt = Matrix::zeros(r, d);
        let mut sv = Vec::with_capacity(r);
        for (slot, &j) in order.iter().take(r).enumerate() {
            let sigma = norms[j];
            sv.push(sigma);
            if sigma > 0.0 {
                for i in 0..n {
                    u[(i, slot)] = w[j][i] / sigma;
                }
            }
            for k in 0..d {
                vt[(slot, k)] = v[j][k];
            }
        }
        Ok(Svd {
            u,
            singular_values: sv,
            vt,
        })
    }

    /// Gram-matrix economy SVD: eigendecomposes the smaller of `A·Aᵀ` and
    /// `Aᵀ·A`, then recovers the other factor as `Aᵀu/σ` (or `Av/σ`).
    pub fn gram(a: &Matrix) -> Result<Svd, SvdError> {
        validate(a)?;
        let (n, d) = a.shape();
        let r = n.min(d);
        if n <= d {
            let eig = RowsGram::solve(a)?;
            let vt = eig.recover(a, r);
            Ok(Svd {
                u: eig.u,
                singular_values: eig.singular_values,
                vt,
            })
        } else {
            // G = Aᵀ·A (d×d); G = V·Σ²·Vᵀ.
            let g = crate::kernels::gram_cols(a);
            let (eigvals, eigvecs) = symmetric_eigen(&g);
            let mut u = Matrix::zeros(n, r);
            let mut vt = Matrix::zeros(r, d);
            let mut sv = Vec::with_capacity(r);
            for slot in 0..r {
                let lambda = eigvals[slot].max(0.0);
                let sigma = lambda.sqrt();
                sv.push(sigma);
                let v_col: Vec<f64> = (0..d).map(|k| eigvecs[(k, slot)]).collect();
                for k in 0..d {
                    vt[(slot, k)] = v_col[k];
                }
                if sigma > crate::EPS {
                    // u = A·v / σ.
                    for i in 0..n {
                        u[(i, slot)] = dot(a.row(i), &v_col) / sigma;
                    }
                }
            }
            Ok(Svd {
                u,
                singular_values: sv,
                vt,
            })
        }
    }

    /// Reconstructs `U · diag(σ) · Vᵀ`. Useful for testing the factorization.
    pub fn reconstruct(&self) -> Matrix {
        let r = self.singular_values.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..r {
                us[(i, j)] *= self.singular_values[j];
            }
        }
        us.matmul(&self.vt)
    }

    /// Number of singular values above `tol · σ_max` — the numerical rank.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * max && s > 0.0)
            .count()
    }
}

/// Whether [`Svd::compute`] takes the Gram path for an `n × d` input.
/// The Gram path solves a `min(n, d)²` eigenproblem; one-sided Jacobi
/// rotates over the full `d` columns. Prefer Gram whenever the aspect
/// ratio is lopsided — which is always true for signature matrices
/// (`n` ≤ a few hundred, `d` = 768).
pub(crate) fn prefers_gram(n: usize, d: usize) -> bool {
    n * 2 < d || d * 2 < n
}

/// The rows-side Gram eigenproblem of a short-and-wide `A` (`n ≤ d`):
/// `A·Aᵀ = U·Σ²·Uᵀ`, solved before any right singular vector is
/// recovered, so a caller that keeps only a prefix of the components
/// (PCA under a variance target) recovers only that prefix.
pub(crate) struct RowsGram {
    /// `σ_i = √max(λ_i, 0)`, descending.
    pub(crate) singular_values: Vec<f64>,
    /// Left singular vectors as columns, `n × n`.
    pub(crate) u: Matrix,
}

impl RowsGram {
    /// Builds `G = A·Aᵀ` with the symmetry-aware tiled kernel (half the
    /// flops, bit-identical) and eigendecomposes it.
    pub(crate) fn solve(a: &Matrix) -> Result<Self, SvdError> {
        validate(a)?;
        debug_assert!(a.rows() <= a.cols(), "rows-side Gram needs n <= d");
        let g = crate::kernels::gram_rows(a);
        let (eigvals, u) = symmetric_eigen(&g);
        let singular_values = eigvals.iter().map(|&l| l.max(0.0).sqrt()).collect();
        Ok(Self { singular_values, u })
    }

    /// The leading `count` right singular vectors as rows (`count × d`).
    pub(crate) fn recover(&self, a: &Matrix, count: usize) -> Matrix {
        recover_right(a, &self.u, &self.singular_values[..count])
    }
}

/// Recovers right singular vectors `v_sᵀ = u_sᵀ·A / σ_s`, one output row
/// per entry of `sigma`; slot `s` reads column `s` of `u`. Row `s` is
/// accumulated as `Σ_i u[i,s]·A.row(i)` in ascending `i` and then divided
/// by `σ_s`: per output entry that is exactly the floating-point sequence
/// of the dot `Σ_i a[i,k]·u[i,s]`, but every access streams a contiguous
/// row. Rows whose `σ ≤ EPS` stay zero (their direction carries no
/// variance and `1/σ` would amplify noise).
pub(crate) fn recover_right(a: &Matrix, u: &Matrix, sigma: &[f64]) -> Matrix {
    let (n, d) = a.shape();
    debug_assert_eq!(u.rows(), n, "one u entry per row of A");
    let mut out = Matrix::zeros(sigma.len(), d);
    let out_data = out.as_mut_slice();
    for (slot, &s) in sigma.iter().enumerate() {
        if s <= crate::EPS {
            continue;
        }
        let row = &mut out_data[slot * d..(slot + 1) * d];
        for i in 0..n {
            let weight = u[(i, slot)];
            for (o, &x) in row.iter_mut().zip(a.row(i)) {
                *o += weight * x;
            }
        }
        for o in row.iter_mut() {
            *o /= s;
        }
    }
    out
}

fn validate(a: &Matrix) -> Result<(), SvdError> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SvdError::EmptyMatrix);
    }
    if a.has_non_finite() {
        return Err(SvdError::NonFiniteInput);
    }
    Ok(())
}

/// Applies the plane rotation `(cols[p], cols[q]) ← (c·p − s·q, s·p + c·q)`.
fn rotate_pair(cols: &mut [Vec<f64>], p: usize, q: usize, c: f64, s: f64) {
    debug_assert_ne!(p, q);
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    let (head, tail) = cols.split_at_mut(hi);
    let (a, b) = if p < q {
        (&mut head[lo], &mut tail[0])
    } else {
        (&mut tail[0], &mut head[lo])
    };
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let xp = c * *x - s * *y;
        let yq = s * *x + c * *y;
        *x = xp;
        *y = yq;
    }
}

/// Iteration cap per eigenvalue in the QL phase of [`symmetric_eigen`].
/// Implicit-shift QL converges cubically, so typical problems need two or
/// three iterations per eigenvalue; hitting the cap means the input was
/// not a finite symmetric matrix.
const MAX_QL_ITERS: usize = 30;

/// Eigendecomposition of a symmetric matrix: Householder
/// tridiagonalization plus implicit-shift QL (EISPACK `tred2` / `tql2`).
/// Only the lower triangle of `m` is read.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted descending
/// and eigenvectors as the corresponding *columns* of the returned matrix,
/// each signed so its largest-magnitude entry is positive (lowest index on
/// an exact tie). See the module docs for the numerics contract.
pub fn symmetric_eigen(m: &Matrix) -> (Vec<f64>, Matrix) {
    assert_eq!(m.rows(), m.cols(), "symmetric_eigen needs a square matrix");
    debug_assert!(
        !m.has_non_finite(),
        "symmetric_eigen: input contains NaN/inf — the QL iteration would not converge"
    );
    let n = m.rows();
    if n == 0 {
        return (Vec::new(), Matrix::zeros(0, 0));
    }
    // `z` holds the basis transposed: row `j` is the `j`-th column of the
    // EISPACK `V`. Seeding it with `mᵀ` makes the row-wise reads below
    // walk `m`'s lower triangle.
    let mut z = m.transpose().as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut z, &mut d, &mut e, n);
    ql_implicit(&mut z, &mut d, &mut e, n);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| total_cmp_f64(&d[j], &d[i]));
    let eigvals: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigvecs = Matrix::zeros(n, n);
    for (slot, &j) in order.iter().enumerate() {
        let v = &z[j * n..(j + 1) * n];
        let mut lead = 0;
        for (i, x) in v.iter().enumerate() {
            if x.abs() > v[lead].abs() {
                lead = i;
            }
        }
        let sign = if v[lead] < 0.0 { -1.0 } else { 1.0 };
        for (i, &x) in v.iter().enumerate() {
            eigvecs[(i, slot)] = sign * x;
        }
    }
    (eigvals, eigvecs)
}

/// `√(a² + b²)` from `+ − × ÷ sqrt` alone, scaled by the larger magnitude
/// so the squares can neither overflow nor underflow.
fn pythag(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let (big, small) = if a >= b { (a, b) } else { (b, a) };
    if big == 0.0 {
        return 0.0;
    }
    let t = small / big;
    big * (1.0 + t * t).sqrt()
}

/// EISPACK `tred2`: Householder reduction of the symmetric matrix whose
/// lower triangle `z` holds (transposed, see [`symmetric_eigen`]) to
/// tridiagonal form. On return `d` is the diagonal, `e[1..]` the
/// subdiagonal, and row `j` of `z` the `j`-th column of the accumulated
/// orthogonal transformation.
fn tridiagonalize(z: &mut [f64], d: &mut [f64], e: &mut [f64], n: usize) {
    for j in 0..n {
        d[j] = z[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = z[j * n + i - 1];
                z[j * n + i] = 0.0;
                z[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for x in d[..i].iter_mut() {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply the similarity transformation to the leading block.
            for j in 0..i {
                let f = d[j];
                z[i * n + j] = f;
                let row = &z[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut z[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                z[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        z[i * n + n - 1] = z[i * n + i];
        z[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = z.split_at_mut((i + 1) * n);
        let next = &mut tail[..n];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = next[k] / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let mut g = 0.0;
                for k in 0..=i {
                    g += next[k] * row[k];
                }
                for k in 0..=i {
                    row[k] -= g * d[k];
                }
            }
        }
        next[..=i].fill(0.0);
    }
    for j in 0..n {
        d[j] = z[j * n + n - 1];
        z[j * n + n - 1] = 0.0;
    }
    z[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// EISPACK `tql2`: implicit-shift QL on the tridiagonal `(d, e)` left by
/// [`tridiagonalize`], rotating the basis rows of `z` along. On return
/// `d` holds the (unsorted) eigenvalues and row `j` of `z` the
/// eigenvector of `d[j]`.
fn ql_implicit(z: &mut [f64], d: &mut [f64], e: &mut [f64], n: usize) {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find the first negligible subdiagonal element at or after `l`;
        // `e[n - 1] = 0` bounds the search.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                // Implicit shift from the leading 2×2 block.
                let g = d[l];
                let p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 {
                    -pythag(p, 1.0)
                } else {
                    pythag(p, 1.0)
                };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for x in d[l + 2..n].iter_mut() {
                    *x -= h;
                }
                f += h;
                // One QL sweep from `m` back up to `l`.
                let mut p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = pythag(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Rotate basis rows i and i+1.
                    let (head, tail) = z.split_at_mut((i + 1) * n);
                    let lo = &mut head[i * n..];
                    let hi = &mut tail[..n];
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        let (xi, yi) = (*x, *y);
                        *y = s * xi + c * yi;
                        *x = c * xi - s * yi;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 {
                    break;
                }
                debug_assert!(
                    iter < MAX_QL_ITERS,
                    "symmetric_eigen: eigenvalue {l} did not converge in {MAX_QL_ITERS} QL iterations"
                );
                if iter >= MAX_QL_ITERS {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    fn assert_reconstructs(a: &Matrix, svd: &Svd, tol: f64) {
        let diff = svd.reconstruct().max_abs_diff(a);
        assert!(diff < tol, "reconstruction error {diff}");
    }

    fn assert_orthonormal_cols(m: &Matrix, tol: f64) {
        let gram = m.transpose().matmul(m);
        for i in 0..gram.rows() {
            for j in 0..gram.cols() {
                let expected = if i == j { 1.0 } else { 0.0 };
                let got = gram[(i, j)];
                // Columns paired with zero singular values may be zero.
                if i == j && got.abs() < tol {
                    continue;
                }
                assert!(
                    (got - expected).abs() < tol,
                    "gram[{i},{j}] = {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0]]);
        let svd = Svd::jacobi(&a).unwrap();
        assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
        assert_reconstructs(&a, &svd, 1e-10);
    }

    #[test]
    fn jacobi_known_rank_one() {
        // Outer product: rank 1 with σ = |u||v|.
        let a = Matrix::from_rows(&[vec![2.0, 4.0], vec![1.0, 2.0]]);
        let svd = Svd::jacobi(&a).unwrap();
        assert!(svd.singular_values[1].abs() < 1e-10);
        assert_eq!(svd.rank(1e-9), 1);
        assert_reconstructs(&a, &svd, 1e-10);
    }

    #[test]
    fn jacobi_random_square() {
        let a = random_matrix(12, 12, 1);
        let svd = Svd::jacobi(&a).unwrap();
        assert_reconstructs(&a, &svd, 1e-8);
        assert_orthonormal_cols(&svd.u, 1e-8);
        assert_orthonormal_cols(&svd.vt.transpose(), 1e-8);
    }

    #[test]
    fn gram_wide_matrix() {
        let a = random_matrix(6, 40, 2);
        let svd = Svd::gram(&a).unwrap();
        assert_eq!(svd.u.shape(), (6, 6));
        assert_eq!(svd.vt.shape(), (6, 40));
        assert_reconstructs(&a, &svd, 1e-8);
        assert_orthonormal_cols(&svd.u, 1e-8);
        assert_orthonormal_cols(&svd.vt.transpose(), 1e-8);
    }

    #[test]
    fn gram_tall_matrix() {
        let a = random_matrix(40, 6, 3);
        let svd = Svd::gram(&a).unwrap();
        assert_eq!(svd.u.shape(), (40, 6));
        assert_eq!(svd.vt.shape(), (6, 6));
        assert_reconstructs(&a, &svd, 1e-8);
    }

    #[test]
    fn gram_and_jacobi_agree_on_singular_values() {
        let a = random_matrix(8, 20, 4);
        let j = Svd::jacobi(&a).unwrap();
        let g = Svd::gram(&a).unwrap();
        for (x, y) in j.singular_values.iter().zip(g.singular_values.iter()) {
            assert!((x - y).abs() < 1e-7, "jacobi {x} vs gram {y}");
        }
    }

    #[test]
    fn compute_dispatches_and_reconstructs() {
        for (rows, cols, seed) in [(5, 30, 5), (30, 5, 6), (10, 10, 7)] {
            let a = random_matrix(rows, cols, seed);
            let svd = Svd::compute(&a).unwrap();
            assert_reconstructs(&a, &svd, 1e-8);
        }
    }

    #[test]
    fn singular_values_sorted_descending() {
        let a = random_matrix(9, 15, 8);
        let svd = Svd::compute(&a).unwrap();
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(matches!(
            Svd::compute(&Matrix::zeros(0, 3)),
            Err(SvdError::EmptyMatrix)
        ));
        assert!(matches!(
            Svd::compute(&Matrix::zeros(3, 0)),
            Err(SvdError::EmptyMatrix)
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(Svd::compute(&a), Err(SvdError::NonFiniteInput)));
    }

    #[test]
    fn zero_matrix_has_zero_singular_values() {
        let a = Matrix::zeros(3, 5);
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.singular_values.iter().all(|&s| s.abs() < 1e-12));
        assert_eq!(svd.rank(1e-9), 0);
        assert_reconstructs(&a, &svd, 1e-12);
    }

    #[test]
    fn single_row_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.singular_values[0] - 5.0).abs() < 1e-10);
        assert_reconstructs(&a, &svd, 1e-10);
    }

    #[test]
    fn symmetric_eigen_known_eigenvalues() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = symmetric_eigen(&m);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // Check A·v = λ·v for the first eigenvector.
        let v0: Vec<f64> = (0..2).map(|i| vecs[(i, 0)]).collect();
        let av = m.matvec(&v0);
        for i in 0..2 {
            assert!((av[i] - vals[0] * v0[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn frobenius_preserved_by_singular_values() {
        // ||A||_F² = Σ σ_i².
        let a = random_matrix(7, 13, 9);
        let svd = Svd::compute(&a).unwrap();
        let sum_sq: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        let frob = a.frobenius_norm();
        assert!((sum_sq - frob * frob).abs() < 1e-8 * frob * frob);
    }

    /// The cyclic Jacobi eigensolver [`symmetric_eigen`] replaced, kept as
    /// the test oracle: slow (column rotations on row-major storage, up
    /// to 100 sweeps) but simple enough to trust.
    fn jacobi_eigen(m: &Matrix) -> (Vec<f64>, Matrix) {
        let n = m.rows();
        let mut a = m.clone();
        let mut v = Matrix::identity(n);
        let scale: f64 = a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
        let tol = if scale > 0.0 { 1e-14 * scale } else { 0.0 };
        for _ in 0..100 {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    off = off.max(a[(p, q)].abs());
                }
            }
            if off <= tol.max(1e-300) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() <= tol {
                        continue;
                    }
                    let zeta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for k in 0..n {
                        let (akp, akq) = (a[(k, p)], a[(k, q)]);
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let (apk, aqk) = (a[(p, k)], a[(q, k)]);
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut vals: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        vals.sort_by(|x, y| total_cmp_f64(y, x));
        (vals, v)
    }

    /// Every way an eigendecomposition `(vals, vecs)` of the symmetric `m`
    /// can be wrong, checked against the Jacobi oracle. Returns the list
    /// of violations (empty when the decomposition is accepted).
    fn eigen_violations(m: &Matrix, vals: &[f64], vecs: &Matrix) -> Vec<String> {
        let n = m.rows();
        let norm = m.frobenius_norm();
        let tol = 1e-12 * norm.max(f64::MIN_POSITIVE);
        let mut bad = Vec::new();
        let (oracle, _) = jacobi_eigen(m);
        for (slot, (&got, &want)) in vals.iter().zip(&oracle).enumerate() {
            if (got - want).abs() > tol {
                bad.push(format!("eigenvalue {slot}: {got} vs oracle {want}"));
            }
        }
        for w in vals.windows(2) {
            if total_cmp_f64(&w[0], &w[1]).is_lt() {
                bad.push(format!("order: {} before {}", w[0], w[1]));
            }
        }
        for slot in 0..n {
            let v: Vec<f64> = (0..n).map(|i| vecs[(i, slot)]).collect();
            let av = m.matvec(&v);
            let residual: f64 = av
                .iter()
                .zip(&v)
                .map(|(a, x)| (a - vals[slot] * x).powi(2))
                .sum::<f64>()
                .sqrt();
            if residual > tol {
                bad.push(format!("residual {slot}: {residual:e} > {tol:e}"));
            }
            let mut lead = 0;
            for i in 1..n {
                if v[i].abs() > v[lead].abs() {
                    lead = i;
                }
            }
            if v[lead] <= 0.0 {
                bad.push(format!("sign {slot}: leading entry {} at {lead}", v[lead]));
            }
        }
        let gram = vecs.transpose().matmul(vecs);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                if (gram[(i, j)] - want).abs() > 1e-13 * (n as f64) {
                    bad.push(format!("orthonormality ({i},{j}): {}", gram[(i, j)]));
                }
            }
        }
        bad
    }

    /// A random orthogonal `n × n` basis.
    fn random_orthogonal(n: usize, rng: &mut Xoshiro256) -> Matrix {
        crate::qr::qr(&Matrix::from_fn(n, n, |_, _| rng.next_gaussian())).0
    }

    /// `Q · diag(lambda) · Qᵀ` for a random orthogonal `Q`.
    fn with_spectrum(lambda: &[f64], rng: &mut Xoshiro256) -> Matrix {
        let n = lambda.len();
        let q = random_orthogonal(n, rng);
        let scaled = Matrix::from_fn(n, n, |i, j| q[(i, j)] * lambda[j]);
        scaled.matmul_transposed(&q)
    }

    /// The eigensolver's input families: random symmetric, repeated
    /// eigenvalues, zero, 1×1, diagonal, already tridiagonal,
    /// rank-deficient Gram, and entries graded from 1e-8 to 1e8.
    fn eigen_inputs(g: &mut crate::check::Gen) -> Vec<(&'static str, Matrix)> {
        let n = g.usize_in(2, 24);
        let rng = g.rng();
        let sym = |m: Matrix| m.add(&m.transpose()).scale(0.5);
        let random = sym(Matrix::from_fn(n, n, |_, _| rng.uniform(-10.0, 10.0)));
        let repeated: Vec<f64> = (0..n).map(|i| [4.0, 4.0, 4.0, -1.5, 0.0][i % 5]).collect();
        let repeated = with_spectrum(&repeated, rng);
        let diag: Vec<f64> = (0..n).map(|_| rng.uniform(-3.0, 3.0).round()).collect();
        let diagonal = Matrix::from_fn(n, n, |i, j| if i == j { diag[i] } else { 0.0 });
        let (dd, ee): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|_| (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
            .unzip();
        let tridiagonal = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => dd[i],
            1 => ee[i.min(j)],
            _ => 0.0,
        });
        let rank = g.usize_in(1, n - 1);
        let rng = g.rng();
        let x = Matrix::from_fn(n, rank, |_, _| rng.next_gaussian());
        let gram = crate::kernels::gram_rows(&x);
        let grade: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-4.0 + 8.0 * i as f64 / (n - 1) as f64))
            .collect();
        let base = sym(Matrix::from_fn(n, n, |_, _| rng.uniform(0.5, 1.0)));
        let graded = Matrix::from_fn(n, n, |i, j| grade[i] * base[(i, j)] * grade[j]);
        let one = Matrix::from_rows(&[vec![rng.uniform(-7.0, 7.0)]]);
        vec![
            ("random", random),
            ("repeated", repeated),
            ("zero", Matrix::zeros(n, n)),
            ("1x1", one),
            ("diagonal", diagonal),
            ("tridiagonal", tridiagonal),
            ("rank-deficient gram", gram),
            ("graded 1e-8..1e8", graded),
        ]
    }

    #[test]
    fn prop_ql_eigen_agrees_with_jacobi_oracle() {
        crate::check::run("ql_eigen_vs_jacobi_oracle", 24, |g| {
            for (family, m) in eigen_inputs(g) {
                let (vals, vecs) = symmetric_eigen(&m);
                let bad = eigen_violations(&m, &vals, &vecs);
                assert!(
                    bad.is_empty(),
                    "{family} ({}×{}): {bad:?}",
                    m.rows(),
                    m.rows()
                );
            }
        });
    }

    #[test]
    fn eigen_checker_rejects_a_perturbed_eigenvector() {
        // Negative control: the checker above must be able to fail. Tilt
        // one eigenvector towards its neighbour (keeping its norm and
        // sign) and the residual check has to catch it.
        let mut rng = Xoshiro256::seed_from(17);
        let m = with_spectrum(&[5.0, 3.0, 1.0, -2.0, -4.0, 0.5], &mut rng);
        let (vals, mut vecs) = symmetric_eigen(&m);
        assert!(eigen_violations(&m, &vals, &vecs).is_empty());
        let n = m.rows();
        let eps: f64 = 1e-6;
        let scale = 1.0 / (1.0 + eps * eps).sqrt();
        for i in 0..n {
            vecs[(i, 0)] = (vecs[(i, 0)] + eps * vecs[(i, 1)]) * scale;
        }
        let bad = eigen_violations(&m, &vals, &vecs);
        assert!(
            bad.iter().any(|b| b.starts_with("residual 0")),
            "perturbation went unnoticed: {bad:?}"
        );
    }

    #[test]
    fn sign_convention_breaks_ties_towards_the_lowest_index() {
        // [[0,1],[1,0]]: eigenvectors (1,1)/√2 and (1,−1)/√2 have entries
        // of equal magnitude; the first entry must come out positive.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let (vals, vecs) = symmetric_eigen(&m);
        assert!((vals[0] - 1.0).abs() < 1e-15 && (vals[1] + 1.0).abs() < 1e-15);
        for slot in 0..2 {
            assert_eq!(vecs[(0, slot)].abs(), vecs[(1, slot)].abs(), "not a tie");
            assert!(vecs[(0, slot)] > 0.0, "slot {slot}: {:?}", vecs.col(slot));
        }
    }

    #[test]
    fn row_streamed_recovery_is_bit_identical_to_the_dot_loop() {
        // Rank-deficient and short-and-wide: the trailing σ ≈ 0 rows must
        // stay zero.
        let mut rng = Xoshiro256::seed_from(23);
        let (n, d, rank) = (19, 57, 15);
        let a = Matrix::from_fn(n, rank, |_, _| rng.next_gaussian()).matmul(&Matrix::from_fn(
            rank,
            d,
            |_, _| rng.next_gaussian(),
        ));
        let eig = RowsGram::solve(&a).unwrap();
        assert!(eig.singular_values.iter().any(|&s| s <= crate::EPS));
        for count in [0, 1, n] {
            let fast = eig.recover(&a, count);
            assert_eq!(fast.shape(), (count, d));
            for slot in 0..count {
                let sigma = eig.singular_values[slot];
                for k in 0..d {
                    let mut acc = 0.0;
                    if sigma > crate::EPS {
                        for i in 0..n {
                            acc += a[(i, k)] * eig.u[(i, slot)];
                        }
                        acc /= sigma;
                    }
                    assert_eq!(
                        fast[(slot, k)].to_bits(),
                        acc.to_bits(),
                        "count {count}, slot {slot}, column {k}"
                    );
                }
            }
        }
    }
}

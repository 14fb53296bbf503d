//! Cache-tiled and register-blocked matrix kernels.
//!
//! The per-schema PCA hot path multiplies short-and-wide signature
//! matrices (`n × 768`). Every dot-product kernel here — [`gram_rows`],
//! [`gram_cols`], `matmul_transposed_blocked` (behind
//! [`Matrix::matmul_transposed`]), [`matmul_narrow`] and [`sq_distances`]
//! — runs on one packed 4×4 micro-kernel: four vectors of each operand
//! are packed k-major (one `[f64; 4]` per `k`) and sixteen independent
//! chains advance together, so sixteen adds are in flight instead of one
//! add latency per output element. The depth is walked in 128-entry
//! slices; within a slice the right operand is packed one [`TILE`]-wide
//! panel at a time and the left four vectors at a time, so a product's
//! scratch is one 64 KiB panel whatever the operand size, and no operand
//! is transposed or copied whole. A product of at least 2M term
//! evaluations (`BAND_MIN_TERMS`, measured) splits its output rows into
//! `LANES`-aligned bands, one per worker of the global executor
//! ([`crate::pool`]), each writing straight into its own rows of the
//! output; called from inside a running chunk (a per-schema fit, say) it
//! keeps to one band, because the executor would run the batch inline.
//!
//! # Bit-identity contract (DESIGN.md §8)
//!
//! Every kernel produces **bit-identical** output to its per-element
//! reference, on every shape — aligned or ragged:
//!
//! - Each output element of the micro-kernel is exactly one chain: it
//!   starts at `-0.0` (the identity `f64: Sum` starts from, so a chain of
//!   `-0.0` terms stays `-0.0`) and adds its terms in ascending `k` with no
//!   fused multiply-add and no reassociation — the floating-point
//!   expression [`dot`] (or [`sq_euclidean`]) evaluates for that pair of
//!   vectors. Between depth slices a chain waits in the output matrix; an
//!   `f64` store and reload is exact. Packing only moves operands; the
//!   lanes of a ragged edge are zero-filled and their results dropped.
//! - Bands split output rows, never a chain: each band runs the same
//!   depth-sliced loop over its rows, so the output does not depend on
//!   the band count or the worker count.
//! - The symmetric kernels ([`gram_rows`], [`gram_cols`], [`sq_distances`])
//!   compute the 4×4 blocks on or above the diagonal and mirror the rest.
//!   `x·y` and `y·x` round the same product, and `(x − y)²` equals
//!   `(y − x)²`, so the mirror is exact.
//! - [`sq_distances_to`] runs four rows against one query per pass, one
//!   chain per row in the same order as [`sq_euclidean`].
//! - `matmul_blocked` (behind [`Matrix::matmul`]) keeps the naive i-k-j
//!   accumulation order instead: `k`-tiles are visited in ascending order,
//!   outer to the `j`-tiles, and the `a == 0.0` skip is preserved so a
//!   `-0.0` output is never flipped to `+0.0` by adding `0.0 * b`.
//!
//! `kernels::tests` pins every equivalence with exact `to_bits` equality,
//! including a signed-zero case that a `+0.0`-started chain fails.

use std::ops::Range;
use std::sync::Mutex;

#[cfg(doc)]
use crate::matrix::dot;
use crate::pool::{self, ThreadPool};
use crate::vecops::sq_euclidean;
use crate::Matrix;

/// Tile edge length, in elements: the width of the packed right-operand
/// panel and of `matmul_blocked`'s cache tiles. A 64×64 `f64` tile is
/// 32 KiB, one L1 data cache.
pub const TILE: usize = 64;

/// Dimension threshold above which [`Matrix::matmul`] and
/// [`Matrix::matmul_transposed`] dispatch to the blocked kernels. Below
/// it every operand already fits in L1 and the tile loop overhead is pure
/// loss.
pub(crate) const BLOCK_DISPATCH_MIN: usize = 128;

/// Vectors per packed group: the micro-kernel computes a `LANES × LANES`
/// output block.
const LANES: usize = 4;

/// Where every chain starts: the identity `f64: Sum` folds from.
const CHAIN_START: f64 = -0.0;

/// Work, in term evaluations, from which [`product`] splits its output
/// rows into one band per worker. Starting a batch's threads costs tens
/// of microseconds, which a small product does not repay. Measured with
/// `gram_rows` on `n × 768` and `a·bᵀ` on `n × 768 · 24 × 768`, two bands
/// against one, 2-vCPU host, three runs: 0.1–0.4M terms lose up to 2×,
/// 0.6–1.2M are even to 25% faster, 2.0–2.4M are 2–40% faster and 8M
/// 30–45% faster.
const BAND_MIN_TERMS: usize = 2_000_000;

/// Depth slice of one packing pass: a [`TILE`]-wide panel of it is 64 KiB
/// and stays cache-resident while every left group runs against it.
const DEPTH_BLOCK: usize = 128;

/// Blocked matrix product `a · b`, bit-identical to [`Matrix::matmul`].
///
/// # Panics
/// If `a.cols() != b.rows()` or `tile == 0`.
pub(crate) fn matmul_blocked(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} · {:?}",
        a.shape(),
        b.shape()
    );
    let (n, kd) = a.shape();
    let p = b.cols();
    let mut out = Matrix::zeros(n, p);
    let out_data = out.as_mut_slice();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i0 in (0..n).step_by(tile) {
        let i1 = (i0 + tile).min(n);
        // Ascending k-tiles, k ascending within each tile: for any fixed
        // output element the contributions are accumulated in exactly
        // the naive order.
        for k0 in (0..kd).step_by(tile) {
            let k1 = (k0 + tile).min(kd);
            for j0 in (0..p).step_by(tile) {
                let j1 = (j0 + tile).min(p);
                for i in i0..i1 {
                    let a_row = &a_data[i * kd..(i + 1) * kd];
                    let out_row = &mut out_data[i * p + j0..i * p + j1];
                    for k in k0..k1 {
                        let av = a_row[k];
                        if av == 0.0 {
                            continue; // same skip as the naive kernel
                        }
                        let b_row = &b_data[k * p + j0..k * p + j1];
                        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
    out
}

/// The vectors a product reads from a matrix.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Rows(&'a Matrix),
    Cols(&'a Matrix),
}

impl Operand<'_> {
    fn count(self) -> usize {
        match self {
            Self::Rows(m) => m.rows(),
            Self::Cols(m) => m.cols(),
        }
    }

    fn depth(self) -> usize {
        match self {
            Self::Rows(m) => m.cols(),
            Self::Cols(m) => m.rows(),
        }
    }

    /// Packs entries `k0..k0 + out.len()` of vectors `v0..v0 + LANES`
    /// k-major into `out`, zero-filling the lanes past the last vector.
    fn pack(self, v0: usize, k0: usize, out: &mut [[f64; LANES]]) {
        let lanes = (self.count() - v0).min(LANES);
        let ks = k0..k0 + out.len();
        match self {
            Self::Rows(m) => {
                if lanes < LANES {
                    out.fill([0.0; LANES]);
                }
                for q in 0..lanes {
                    for (slot, &v) in out.iter_mut().zip(&m.row(v0 + q)[ks.clone()]) {
                        slot[q] = v;
                    }
                }
            }
            Self::Cols(m) => {
                for (slot, k) in out.iter_mut().zip(ks) {
                    *slot = [0.0; LANES];
                    slot[..lanes].copy_from_slice(&m.row(k)[v0..v0 + lanes]);
                }
            }
        }
    }
}

/// The micro-kernel: advances every chain `acc[p][q]` by
/// `term(xs[k][p], ys[k][q])` over ascending `k`.
#[inline(always)]
fn micro(
    xs: &[[f64; LANES]],
    ys: &[[f64; LANES]],
    acc: &mut [[f64; LANES]; LANES],
    term: impl Fn(f64, f64) -> f64,
) {
    for (x, y) in xs.iter().zip(ys) {
        for (row, &xp) in acc.iter_mut().zip(x) {
            for (cell, &yq) in row.iter_mut().zip(y) {
                *cell += term(xp, yq);
            }
        }
    }
}

/// `out[i][j]` = the chain of `term(a_i[k], b_j[k])` over ascending `k`,
/// for every vector `a_i` of `a` and `b_j` of `b`. With `symmetric` (`a`
/// and `b` the same operand) only blocks on or above the diagonal are
/// computed and the lower triangle is mirrored. A product of at least
/// [`BAND_MIN_TERMS`] terms is split into one row band per worker of the
/// global executor ([`banded_product`]).
fn product(
    a: Operand,
    b: Operand,
    tile: usize,
    symmetric: bool,
    term: impl Fn(f64, f64) -> f64 + Copy + Sync,
) -> Matrix {
    let executor = pool::global();
    let bands = if terms(a, b, symmetric) >= BAND_MIN_TERMS {
        executor.effective_workers()
    } else {
        1
    };
    banded_product(executor, bands, a, b, tile, symmetric, term)
}

/// Term evaluations a product makes: `n · m · depth`, about half of it
/// for a symmetric one.
fn terms(a: Operand, b: Operand, symmetric: bool) -> usize {
    let (n, m, depth) = (a.count(), b.count(), a.depth());
    let pairs = if symmetric {
        n.saturating_mul(n + 1) / 2
    } else {
        n.saturating_mul(m)
    };
    pairs.saturating_mul(depth)
}

/// [`product`] on at most `bands` row bands ([`band_rows`]), each run as
/// one slot of a batch on `executor` and written straight into its own
/// rows of the output. A band is [`product_band`], the same loop a single
/// band runs, so every chain is the same k-ascending chain whatever the
/// band count: threads split rows, never a chain. A symmetric product is
/// mirrored once after the join.
fn banded_product(
    executor: &ThreadPool,
    bands: usize,
    a: Operand,
    b: Operand,
    tile: usize,
    symmetric: bool,
    term: impl Fn(f64, f64) -> f64 + Copy + Sync,
) -> Matrix {
    assert!(tile > 0, "tile must be positive");
    let (n, m, depth) = (a.count(), b.count(), a.depth());
    debug_assert_eq!(depth, b.depth(), "operand depth mismatch");
    let mut out = Matrix::from_vec(n, m, vec![CHAIN_START; n * m]);
    if n == 0 || m == 0 || depth == 0 {
        return out;
    }
    let ranges = band_rows(n, bands, symmetric);
    let o = out.as_mut_slice();
    if let [rows] = ranges.as_slice() {
        // Called directly: a one-slot batch would still fire the fault
        // hook and take a lock on every small product.
        product_band(a, b, tile, symmetric, term, rows.clone(), o);
    } else {
        // One lock per band, so the slots can share the list of bands.
        let mut rest = &mut *o;
        let mut slices = Vec::with_capacity(ranges.len());
        for rows in &ranges {
            let (band, tail) = rest.split_at_mut(rows.len() * m);
            slices.push(Mutex::new(band));
            rest = tail;
        }
        executor
            .run_slots(ranges.len(), |i| {
                let mut band = slices[i]
                    .lock()
                    .expect("each band's lock is taken once, by its own slot");
                product_band(a, b, tile, symmetric, term, ranges[i].clone(), &mut band);
            })
            .unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e.detail)));
    }
    if symmetric {
        for i in 1..n {
            for j in 0..i {
                o[i * m + j] = o[j * m + i];
            }
        }
    }
    out
}

/// Splits the `n` output rows into at most `bands` contiguous, non-empty
/// ranges that start on a [`LANES`] boundary and cover `0..n` once. A
/// group of `LANES` rows weighs the blocks it computes: all of them in a
/// plain product, those on or above the diagonal in a symmetric one.
/// Band `b` ends at the first group boundary whose weight prefix reaches
/// `b / bands` of the total, so each band's weight is within one group's
/// of an even share.
fn band_rows(n: usize, bands: usize, symmetric: bool) -> Vec<Range<usize>> {
    let groups = n.div_ceil(LANES);
    let weight = |g: usize| if symmetric { groups - g } else { 1 };
    let total: usize = (0..groups).map(weight).sum();
    let bands = bands.clamp(1, groups.max(1));
    let mut out = Vec::with_capacity(bands);
    let (mut start, mut end, mut prefix) = (0, 0, 0);
    for band in 1..=bands {
        while end < groups && prefix * bands < band * total {
            prefix += weight(end);
            end += 1;
        }
        if end > start {
            out.push(start * LANES..(end * LANES).min(n));
            start = end;
        }
    }
    out
}

/// One row band of a product: output rows `rows`, held in `o` (row `i`
/// at `o[(i - rows.start) * m..]`). The depth is walked in
/// [`DEPTH_BLOCK`] slices, each chain carried through `o` between them
/// (an `f64` store and reload is exact); within a slice `b` is packed one
/// `tile`-wide panel at a time and `a` four vectors at a time.
fn product_band(
    a: Operand,
    b: Operand,
    tile: usize,
    symmetric: bool,
    term: impl Fn(f64, f64) -> f64 + Copy,
    rows: Range<usize>,
    o: &mut [f64],
) {
    let (n, m, depth) = (a.count(), b.count(), a.depth());
    let panel = tile.div_ceil(LANES).min(m.div_ceil(LANES));
    let block = DEPTH_BLOCK.min(depth);
    let mut bp = vec![[0.0; LANES]; panel * block];
    let mut ap = vec![[0.0; LANES]; block];
    for k0 in (0..depth).step_by(block) {
        let kn = block.min(depth - k0);
        for j0 in (0..m).step_by(panel * LANES) {
            let groups = (m - j0).div_ceil(LANES).min(panel);
            let i_end = if symmetric {
                rows.end.min(j0 + groups * LANES)
            } else {
                rows.end
            };
            if i_end <= rows.start {
                continue;
            }
            for g in 0..groups {
                b.pack(j0 + g * LANES, k0, &mut bp[g * kn..(g + 1) * kn]);
            }
            for i0 in (rows.start..i_end).step_by(LANES) {
                a.pack(i0, k0, &mut ap[..kn]);
                let row_count = (n - i0).min(LANES);
                for g in 0..groups {
                    let jg = j0 + g * LANES;
                    if symmetric && jg < i0 {
                        continue;
                    }
                    let cols = (m - jg).min(LANES);
                    let cell = |p: usize, q: usize| (i0 - rows.start + p) * m + jg + q;
                    let mut acc = [[CHAIN_START; LANES]; LANES];
                    for p in 0..row_count {
                        for q in 0..cols {
                            acc[p][q] = o[cell(p, q)];
                        }
                    }
                    micro(&ap[..kn], &bp[g * kn..(g + 1) * kn], &mut acc, term);
                    for p in 0..row_count {
                        for q in 0..cols {
                            o[cell(p, q)] = acc[p][q];
                        }
                    }
                }
            }
        }
    }
}

fn mul(x: f64, y: f64) -> f64 {
    x * y
}

fn sq_diff(x: f64, y: f64) -> f64 {
    let d = x - y;
    d * d
}

/// Blocked `a · bᵀ`, bit-identical to [`Matrix::matmul_transposed`]: each
/// element is the chain `dot(a.row(i), b.row(j))` evaluates.
///
/// # Panics
/// If `a.cols() != b.cols()` or `tile == 0`.
pub(crate) fn matmul_transposed_blocked(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transposed shape mismatch: {:?} · {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    product(Operand::Rows(a), Operand::Rows(b), tile, false, mul)
}

/// The Gram matrix of the rows of `a` — `a · aᵀ` — bit-identical to
/// `a.matmul_transposed(a)` at roughly half the flops.
pub fn gram_rows(a: &Matrix) -> Matrix {
    product(Operand::Rows(a), Operand::Rows(a), TILE, true, mul)
}

/// The Gram matrix of the columns of `x` — `xᵀ · x` — bit-identical to
/// `gram_rows(&x.transpose())`, packed straight from `x` without
/// materialising the transpose.
pub fn gram_cols(x: &Matrix) -> Matrix {
    product(Operand::Cols(x), Operand::Cols(x), TILE, true, mul)
}

/// Product `a · b` for a *narrow* right operand (few columns), the shape
/// of the truncated PCA solver's `G · Q` step. Each element is the chain
/// `dot(a.row(i), &b.col(j))` evaluates; `b`'s columns are packed
/// straight from `b`.
///
/// # Panics
/// If `a.cols() != b.rows()`.
pub fn matmul_narrow(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_narrow shape mismatch: {:?} · {:?}",
        a.shape(),
        b.shape()
    );
    product(Operand::Rows(a), Operand::Cols(b), TILE, false, mul)
}

/// Squared Euclidean distances between every pair of rows of `a`, each
/// bit-identical to [`sq_euclidean`] of the pair.
pub fn sq_distances(a: &Matrix) -> Matrix {
    product(Operand::Rows(a), Operand::Rows(a), TILE, true, sq_diff)
}

/// Squared Euclidean distances from `query` to the listed rows of `m`, in
/// list order, each bit-identical to [`sq_euclidean`]. Four rows share
/// one pass over `query`; a ragged tail falls back to [`sq_euclidean`].
///
/// # Panics
/// If `query.len() != m.cols()` or a row index is out of bounds.
pub fn sq_distances_to(query: &[f64], m: &Matrix, rows: &[usize]) -> Vec<f64> {
    assert_eq!(query.len(), m.cols(), "query dimensionality mismatch");
    let mut out = Vec::with_capacity(rows.len());
    let mut quads = rows.chunks_exact(LANES);
    for quad in &mut quads {
        let [mut d0, mut d1, mut d2, mut d3] = [CHAIN_START; LANES];
        let ys = query
            .iter()
            .zip(m.row(quad[0]))
            .zip(m.row(quad[1]))
            .zip(m.row(quad[2]))
            .zip(m.row(quad[3]));
        for ((((&x, &y0), &y1), &y2), &y3) in ys {
            d0 += sq_diff(x, y0);
            d1 += sq_diff(x, y1);
            d2 += sq_diff(x, y2);
            d3 += sq_diff(x, y3);
        }
        out.extend([d0, d1, d2, d3]);
    }
    out.extend(
        quads
            .remainder()
            .iter()
            .map(|&i| sq_euclidean(query, m.row(i))),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run, Gen};
    use crate::matrix::dot;
    use crate::vecops::euclidean;
    use crate::Xoshiro256;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        // The un-dispatched reference loops (mirrors Matrix::matmul
        // before blocking existed).
        let n = a.rows();
        let p = b.cols();
        let mut out = Matrix::zeros(n, p);
        for i in 0..n {
            let a_row = a.row(i);
            let out_row = &mut out.as_mut_slice()[i * p..(i + 1) * p];
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.as_slice()[k * p..(k + 1) * p];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The per-element reference: `f(a.row(i), b.row(j))` for every pair.
    fn pairwise(a: &Matrix, b: &Matrix, f: fn(&[f64], &[f64]) -> f64) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| f(a.row(i), b.row(j)))
    }

    fn assert_bits_equal(x: &Matrix, y: &Matrix, what: &str) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape");
        for (a, b) in x.as_slice().iter().zip(y.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
        }
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    /// Two operands sharing a depth up to 300, with row counts in every
    /// residue mod 4 and a tile that may straddle them.
    fn operands(g: &mut Gen) -> (Matrix, Matrix, usize) {
        let n = g.usize_in(1, 70);
        let m = g.usize_in(1, 70);
        let d = g.usize_in(1, 300);
        let tile = g.usize_in(1, 70);
        let rng = g.rng();
        let a = Matrix::from_fn(n, d, |_, _| rng.next_gaussian());
        let b = Matrix::from_fn(m, d, |_, _| rng.next_gaussian());
        (a, b, tile)
    }

    #[test]
    fn blocked_matmul_bit_identical_on_aligned_tiles() {
        // Shapes that are exact multiples of the tile size.
        let a = random(8, 12, 1);
        let b = random(12, 4, 2);
        let got = matmul_blocked(&a, &b, 4);
        assert_bits_equal(&got, &naive_matmul(&a, &b), "aligned matmul");
    }

    #[test]
    fn blocked_matmul_bit_identical_on_ragged_tiles() {
        run("blocked_matmul_ragged", 48, |g| {
            let n = g.usize_in(1, 30);
            let kd = g.usize_in(1, 30);
            let p = g.usize_in(1, 30);
            let mut rng = Xoshiro256::seed_from(g.seed());
            let mut a = Matrix::from_fn(n, kd, |_, _| rng.next_gaussian());
            let b = Matrix::from_fn(kd, p, |_, _| rng.next_gaussian());
            // Sprinkle exact zeros so the skip path is exercised.
            if n * kd > 2 {
                let z = g.usize_in(0, n * kd - 1);
                a.as_mut_slice()[z] = 0.0;
            }
            let tile = g.usize_in(1, 9);
            let got = matmul_blocked(&a, &b, tile);
            assert_bits_equal(&got, &naive_matmul(&a, &b), "ragged matmul");
        });
    }

    #[test]
    fn blocked_matmul_transposed_bit_identical() {
        run("blocked_matmul_transposed", 32, |g| {
            let (a, b, tile) = operands(g);
            let got = matmul_transposed_blocked(&a, &b, tile);
            assert_bits_equal(&got, &pairwise(&a, &b, dot), "matmul_transposed");
        });
    }

    #[test]
    fn gram_rows_bit_identical_to_self_product() {
        run("gram_rows_cols", 32, |g| {
            let (a, _, tile) = operands(g);
            let want = pairwise(&a, &a, dot);
            assert_bits_equal(&gram_rows(&a), &want, "gram_rows");
            // The columns side packs straight from `aᵀ`'s storage.
            let at = a.transpose();
            assert_bits_equal(&gram_cols(&at), &want, "gram_cols");
            // Both sides again with panels of any width.
            let (rows, cols) = (Operand::Rows(&a), Operand::Cols(&at));
            let got = product(rows, rows, tile, true, mul);
            assert_bits_equal(&got, &want, "gram_rows, any tile");
            let got = product(cols, cols, tile, true, mul);
            assert_bits_equal(&got, &want, "gram_cols, any tile");
        });
    }

    #[test]
    fn narrow_matmul_bit_identical_to_dot_reference() {
        run("matmul_narrow", 32, |g| {
            let (a, b, _) = operands(g);
            // Same expression: dot(row of a, column of bᵀ).
            let got = matmul_narrow(&a, &b.transpose());
            assert_bits_equal(&got, &pairwise(&a, &b, dot), "matmul_narrow");
        });
    }

    #[test]
    fn distances_bit_identical_to_pairwise_loops() {
        run("sq_distances", 32, |g| {
            let (a, b, tile) = operands(g);
            let sq = sq_distances(&a);
            assert_bits_equal(&sq, &pairwise(&a, &a, sq_euclidean), "sq_distances");
            let rows = Operand::Rows(&a);
            let got = product(rows, rows, tile, true, sq_diff);
            assert_bits_equal(&got, &sq, "sq_distances, any tile");
            // LOF's former distance loop: one `euclidean` per unordered
            // pair, mirrored, zero diagonal.
            let n = a.rows();
            let mut lof = Matrix::zeros(n, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = euclidean(a.row(i), a.row(j));
                    lof[(i, j)] = d;
                    lof[(j, i)] = d;
                }
            }
            let root = Matrix::from_fn(n, n, |i, j| sq[(i, j)].sqrt());
            assert_bits_equal(&root, &lof, "LOF distances");
            // The interleaved rerank, over a list with repeats and every
            // length mod 4.
            let query = b.row(0);
            let len = g.usize_in(0, 11);
            let rows: Vec<usize> = (0..len).map(|_| g.usize_in(0, n - 1)).collect();
            let got = sq_distances_to(query, &a, &rows);
            let want: Vec<f64> = rows
                .iter()
                .map(|&i| sq_euclidean(query, a.row(i)))
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "sq_distances_to");
        });
    }

    #[test]
    fn signed_zero_chains_match_dot_with_negative_control() {
        // `+0.0 · y` for negative `y` is `-0.0`, so these chains are `-0.0`
        // only if they start from `-0.0` as `dot` does. Random Gaussian
        // inputs never produce a chain of signed zeros.
        let zeros = Matrix::zeros(5, 9);
        let neg = Matrix::from_fn(6, 9, |i, j| -1.0 - (i * 9 + j) as f64);
        let want = dot(zeros.row(0), neg.row(0)).to_bits();
        assert_eq!(want, (-0.0f64).to_bits());
        let all_dot = |m: &Matrix| m.as_slice().iter().all(|v| v.to_bits() == want);
        assert!(all_dot(&matmul_transposed_blocked(&zeros, &neg, TILE)));
        assert!(all_dot(&matmul_narrow(&zeros, &neg.transpose())));
        // `n×0` operands: every chain is empty.
        let empty = Matrix::zeros(7, 0);
        assert!(all_dot(&gram_rows(&empty)));
        assert!(all_dot(&gram_cols(&empty.transpose())));
        assert!(all_dot(&matmul_transposed_blocked(
            &empty,
            &Matrix::zeros(3, 0),
            TILE
        )));
        assert!(all_dot(&matmul_narrow(&empty, &Matrix::zeros(0, 3))));
        // Negative control: the same micro-kernel started from `+0.0`
        // returns `+0.0`, which the check above rejects.
        let (mut xs, mut ys) = (vec![[0.0; LANES]; 9], vec![[0.0; LANES]; 9]);
        Operand::Rows(&zeros).pack(0, 0, &mut xs);
        Operand::Rows(&neg).pack(0, 0, &mut ys);
        for (start, passes) in [(CHAIN_START, true), (0.0, false)] {
            let mut acc = [[start; LANES]; LANES];
            micro(&xs, &ys, &mut acc, mul);
            assert_eq!(acc.iter().flatten().all(|v| v.to_bits() == want), passes);
        }
    }

    #[test]
    fn banded_products_bit_identical_for_any_worker_count() {
        let pools: Vec<ThreadPool> = [1, 2, 3, 5].map(ThreadPool::with_threads).into();
        run("banded_products", 12, |g| {
            // Up to 150 rows: bands of 30–150 rows start on either side
            // of `TILE`, and every row count mod 4 occurs.
            let n = g.usize_in(1, 150);
            let m = g.usize_in(1, 150);
            let d = g.usize_in(1, 200);
            let tile = if g.usize_in(0, 1) == 0 {
                TILE
            } else {
                g.usize_in(1, 70)
            };
            let rng = g.rng();
            let a = Matrix::from_fn(n, d, |_, _| rng.next_gaussian());
            let b = Matrix::from_fn(m, d, |_, _| rng.next_gaussian());
            let (at, bt) = (a.transpose(), b.transpose());
            let (ra, rb, ca) = (Operand::Rows(&a), Operand::Rows(&b), Operand::Cols(&at));
            let a_dot_b = pairwise(&a, &b, dot);
            let gram = pairwise(&a, &a, dot);
            let dist = pairwise(&a, &a, sq_euclidean);
            for pool in &pools {
                let w = pool.workers();
                let banded = |x, y, sym, term: fn(f64, f64) -> f64| {
                    banded_product(pool, w, x, y, tile, sym, term)
                };
                let what = |kind: &str| format!("{kind}, {w} workers, {n}x{m}x{d}");
                assert_bits_equal(&banded(ra, rb, false, mul), &a_dot_b, &what("a·bᵀ"));
                let narrow = banded(ra, Operand::Cols(&bt), false, mul);
                assert_bits_equal(&narrow, &a_dot_b, &what("narrow"));
                assert_bits_equal(&banded(ra, ra, true, mul), &gram, &what("gram_rows"));
                assert_bits_equal(&banded(ca, ca, true, mul), &gram, &what("gram_cols"));
                assert_bits_equal(&banded(ra, ra, true, sq_diff), &dist, &what("distances"));
            }
        });
    }

    #[test]
    fn products_past_the_band_threshold_match_the_references() {
        // 130 × 300 symmetric is 2.55M terms, so the global executor
        // bands it whenever it has more than one worker.
        let a = random(130, 300, 21);
        assert!(terms(Operand::Rows(&a), Operand::Rows(&a), true) >= BAND_MIN_TERMS);
        assert_bits_equal(&gram_rows(&a), &pairwise(&a, &a, dot), "gram_rows");
        assert_bits_equal(
            &gram_cols(&a.transpose()),
            &pairwise(&a, &a, dot),
            "gram_cols",
        );
        let q = random(300, 70, 22);
        let want = Matrix::from_fn(130, 70, |i, j| dot(a.row(i), &q.col(j)));
        assert_bits_equal(&matmul_narrow(&a, &q), &want, "matmul_narrow");
    }

    #[test]
    fn band_rows_cover_once_on_lane_boundaries_and_balance() {
        run("band_rows", 256, |g| {
            let n = g.usize_in(1, 400);
            let bands = g.usize_in(1, 9);
            let symmetric = g.usize_in(0, 1) == 1;
            let ranges = band_rows(n, bands, symmetric);
            assert!(!ranges.is_empty() && ranges.len() <= bands);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous: {ranges:?}");
            }
            for r in &ranges {
                assert!(!r.is_empty() && r.start % LANES == 0, "{ranges:?}");
            }
            // Each band's weight is within one group's weight of an even
            // share (the heaviest group weighs `groups` when symmetric).
            let groups = n.div_ceil(LANES);
            let weight = |g: usize| if symmetric { groups - g } else { 1 };
            let total: usize = (0..groups).map(weight).sum();
            let share = bands.min(groups);
            let heaviest = weight(0);
            for r in &ranges {
                let area: usize = (r.start / LANES..r.end.div_ceil(LANES)).map(weight).sum();
                assert!(
                    (area * share).abs_diff(total) < heaviest * share,
                    "band {r:?} weighs {area} of {total} over {share} bands"
                );
            }
            // A plain product deals bands whose group counts differ by at
            // most one.
            if !symmetric {
                assert_eq!(ranges.len(), share);
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len().div_ceil(LANES)).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{sizes:?}");
            }
        });
    }

    #[test]
    fn splitting_the_depth_across_workers_breaks_bit_identity() {
        // Negative control for the rule that threads split rows, never a
        // chain: two workers each summing half of the depth, their partial
        // chains then added, round differently from the one chain the
        // banded product keeps.
        let pool = ThreadPool::with_threads(2);
        let a = random(24, 300, 31);
        let want = pairwise(&a, &a, dot);
        let banded = banded_product(
            &pool,
            2,
            Operand::Rows(&a),
            Operand::Rows(&a),
            TILE,
            true,
            mul,
        );
        assert_bits_equal(&banded, &want, "row bands");
        let halves = pool
            .run_slots(2, |h| {
                let cols: Vec<usize> = (h * 150..(h + 1) * 150).collect();
                let half = Matrix::from_fn(24, 150, |i, j| a[(i, cols[j])]);
                gram_rows(&half)
            })
            .unwrap();
        let split = Matrix::from_fn(24, 24, |i, j| halves[0][(i, j)] + halves[1][(i, j)]);
        let differ = split
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        assert!(differ > 0, "a depth split must move some bits");
    }

    #[test]
    fn gram_is_exactly_symmetric() {
        let a = random(37, 19, 7);
        let g = gram_rows(&a);
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn dispatch_thresholds_are_transparent() {
        // Shapes straddling BLOCK_DISPATCH_MIN: the public Matrix methods
        // must agree with the reference loops regardless of which kernel
        // they picked.
        for &(n, kd, p, seed) in &[
            (3usize, 150usize, 140usize, 11u64),
            (150, 3, 150, 12),
            (130, 130, 2, 13),
        ] {
            let a = random(n, kd, seed);
            let b = random(kd, p, seed + 100);
            assert_bits_equal(&a.matmul(&b), &naive_matmul(&a, &b), "matmul dispatch");
            let bt = random(p, kd, seed + 200);
            assert_bits_equal(
                &a.matmul_transposed(&bt),
                &pairwise(&a, &bt, dot),
                "matmul_transposed dispatch",
            );
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul_blocked(&a, &b, TILE).shape(), (0, 3));
        let g = gram_rows(&Matrix::zeros(0, 4));
        assert_eq!(g.shape(), (0, 0));
        let one = Matrix::from_rows(&[vec![2.0]]);
        assert_eq!(matmul_blocked(&one, &one, TILE)[(0, 0)], 4.0);
        assert_eq!(gram_rows(&one)[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "tile must be positive")]
    fn zero_tile_rejected() {
        let a = Matrix::zeros(2, 2);
        matmul_blocked(&a, &a, 0);
    }
}

//! The dense row-major f32 matrix at the bottom of everything.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Row-major 2-D f32 tensor. Rows are samples (the micro-batch dimension),
/// columns are features.
///
/// Serde round-trips are **bit-exact** for finite values: every `f32`
/// widens losslessly to `f64`, the JSON writer renders the shortest
/// round-trip form, and narrowing back recovers the original bits — the
/// property the checkpoint format (`hanayo-ckpt`) is built on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `rows * cols` values, row-major.
    pub data: Vec<f32>,
}

/// Below this multiply-add count (`m * k * n`), parallel matmul overhead
/// outweighs the win: ~32k madds is a few microseconds of scalar work,
/// roughly the cost of one pooled dispatch.
pub const PAR_FLOP_THRESHOLD: usize = 32 * 1024;

/// Column tile for the blocked gemm: four `b`-row segments plus the output
/// segment stay resident in L1 (5 × 512 × 4 B = 10 KiB).
const GEMM_COL_TILE: usize = 512;

/// Parallel-dispatch decision for an `[m,k] × [k,n]` product: gate on work
/// (`m * k * n` multiply-adds), not output size (`m * n`). A
/// `[4,4096]×[4096,4]` product is 65,536 madds behind 16 outputs — worth
/// threads; `[128,1]×[1,128]` is 16,384 madds spread over 16,384 outputs —
/// not worth one dispatch. Work splits by output row, so a single-row
/// product never parallelizes.
pub fn matmul_parallelizes(m: usize, k: usize, n: usize) -> bool {
    m > 1 && m.saturating_mul(k).saturating_mul(n) >= PAR_FLOP_THRESHOLD
}

/// One output row of `a × b` in the canonical reduction order: every
/// element accumulates its `k` contributions with `p` strictly ascending.
/// The `k` loop is unrolled by 4 with *sequential* adds (a chain, not a
/// tree) and columns are tiled ([`GEMM_COL_TILE`]); both transforms
/// preserve the per-element f32 add chain, so the result is bitwise
/// identical to the naive `ikj` loop while cutting `out_row` load/store
/// traffic 4×.
fn gemm_row_blocked(a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let k = a_row.len();
    let n = out_row.len();
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + GEMM_COL_TILE).min(n);
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            let r0 = &b[p * n + j0..p * n + j1];
            let r1 = &b[(p + 1) * n + j0..(p + 1) * n + j1];
            let r2 = &b[(p + 2) * n + j0..(p + 2) * n + j1];
            let r3 = &b[(p + 3) * n + j0..(p + 3) * n + j1];
            let out_seg = &mut out_row[j0..j1];
            for ((((o, &v0), &v1), &v2), &v3) in out_seg.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
            {
                let mut acc = *o;
                acc += a0 * v0;
                acc += a1 * v1;
                acc += a2 * v2;
                acc += a3 * v3;
                *o = acc;
            }
            p += 4;
        }
        while p < k {
            let a0 = a_row[p];
            let r0 = &b[p * n + j0..p * n + j1];
            for (o, &v0) in out_row[j0..j1].iter_mut().zip(r0) {
                *o += a0 * v0;
            }
            p += 1;
        }
        j0 = j1;
    }
}

/// Output row `pcol` of `aᵀ × b` without materializing the transpose:
/// coefficients walk column `pcol` of `a` while `b` rows stream — the
/// reduction index `i` (rows of `a`/`b`) ascends exactly as in
/// `a.transpose().matmul(b)`, so the result is bitwise identical.
fn gemm_at_b_row(a: &[f32], ka: usize, m: usize, pcol: usize, b: &[f32], out_row: &mut [f32]) {
    let n = out_row.len();
    let mut i = 0;
    while i + 4 <= m {
        let a0 = a[i * ka + pcol];
        let a1 = a[(i + 1) * ka + pcol];
        let a2 = a[(i + 2) * ka + pcol];
        let a3 = a[(i + 3) * ka + pcol];
        let r0 = &b[i * n..(i + 1) * n];
        let r1 = &b[(i + 1) * n..(i + 2) * n];
        let r2 = &b[(i + 2) * n..(i + 3) * n];
        let r3 = &b[(i + 3) * n..(i + 4) * n];
        for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            let mut acc = *o;
            acc += a0 * v0;
            acc += a1 * v1;
            acc += a2 * v2;
            acc += a3 * v3;
            *o = acc;
        }
        i += 4;
    }
    while i < m {
        let a0 = a[i * ka + pcol];
        let r0 = &b[i * n..(i + 1) * n];
        for (o, &v0) in out_row.iter_mut().zip(r0) {
            *o += a0 * v0;
        }
        i += 1;
    }
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector (length must match).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Matrix product `self × other` (`[m,k] × [k,n] → [m,n]`).
    ///
    /// Cache-blocked `ikj` with a **fixed reduction order**: every output
    /// element accumulates its `k` terms in one sequential f32 chain with
    /// `p` ascending, so the result is bitwise identical to the scalar
    /// seed kernel ([`Tensor::matmul_reference`]) on every input — blocked,
    /// unrolled, serial and row-parallel dispatches all agree to the bit.
    /// Large products (by [`matmul_parallelizes`], a flops gate) split
    /// over output rows (disjoint writes).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        hanayo_metrics::count!("hanayo_gemm_dispatch_total", &[("kernel", "matmul")], 1);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];

        let row_job = |(i, out_row): (usize, &mut [f32])| {
            gemm_row_blocked(&self.data[i * k..(i + 1) * k], &other.data, out_row);
        };

        if matmul_parallelizes(m, k, n) {
            out.par_chunks_mut(n).enumerate().for_each(row_job);
        } else {
            out.chunks_mut(n).enumerate().for_each(row_job);
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// Frozen seed gemm: the naive serial `ikj` loop. The test oracle the
    /// property tests pin the fast kernels bitwise against.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (p, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// Fused `selfᵀ × other` (`[m,ka]ᵀ × [m,n] → [ka,n]`) without
    /// materializing the transpose. Bitwise identical to
    /// `self.transpose().matmul(other)`: per output element the reduction
    /// runs over rows `i` strictly ascending, exactly like the reference.
    pub fn matmul_at_b(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_at_b shape mismatch");
        hanayo_metrics::count!("hanayo_gemm_dispatch_total", &[("kernel", "at_b")], 1);
        let (m, ka, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; ka * n];

        let row_job = |(pcol, out_row): (usize, &mut [f32])| {
            gemm_at_b_row(&self.data, ka, m, pcol, &other.data, out_row);
        };

        if matmul_parallelizes(ka, m, n) {
            out.par_chunks_mut(n).enumerate().for_each(row_job);
        } else {
            out.chunks_mut(n).enumerate().for_each(row_job);
        }
        Tensor { rows: ka, cols: n, data: out }
    }

    /// `self × otherᵀ` (`[m,k] × [n,k]ᵀ → [m,n]`), bitwise identical to
    /// `self.matmul(&other.transpose())`.
    ///
    /// Measured surprise: a "fused" row-dot form (walking `other`'s rows in
    /// place) *loses* to transposing once and streaming the blocked kernel
    /// — each fused output is one serial dependent f32 chain, while the
    /// blocked kernel spreads four independent chains across a whole
    /// output-row tile. So this entry materializes `otherᵀ` internally and
    /// reuses [`gemm_row_blocked`]; the win over calling sites doing it by
    /// hand is one transpose per product instead of one per caller, and a
    /// single place to revisit the trade-off.
    pub fn matmul_a_bt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_a_bt shape mismatch");
        hanayo_metrics::count!("hanayo_gemm_dispatch_total", &[("kernel", "a_bt")], 1);
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let bt = other.transpose();
        let mut out = vec![0.0f32; m * n];

        let row_job = |(i, out_row): (usize, &mut [f32])| {
            gemm_row_blocked(&self.data[i * k..(i + 1) * k], &bt.data, out_row);
        };

        if matmul_parallelizes(m, k, n) {
            out.par_chunks_mut(n).enumerate().for_each(row_job);
        } else {
            out.chunks_mut(n).enumerate().for_each(row_job);
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.get_mut(c, r) = self.get(r, c);
            }
        }
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every element.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of column `c` over all rows (used for bias gradients).
    pub fn col_sum(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Max absolute difference to another tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    /// Dense pseudo-random tensor; every element nonzero so a changed
    /// reduction order shows up in the low bits (unlike the old
    /// identity-matrix test, where each output had exactly one term).
    fn dense(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what}: shape");
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn parallel_gate_is_flops_not_output_size() {
        // [4,4096]×[4096,4]: 16 outputs but 65,536 madds — parallelize.
        assert!(matmul_parallelizes(4, 4096, 4));
        // [128,1]×[1,128]: 16,384 outputs but only 16,384 madds — serial.
        assert!(!matmul_parallelizes(128, 1, 128));
        // Work splits by output row: one row can never parallelize.
        assert!(!matmul_parallelizes(1, 4096, 4096));
    }

    #[test]
    fn blocked_kernel_matches_reference_bitwise() {
        // Shapes straddling both gates; k exercises the unroll tail (k%4≠0)
        // and the column tile boundary (n > GEMM_COL_TILE).
        for &(m, k, n) in &[(7, 13, 9), (4, 4096, 4), (128, 1, 128), (33, 65, 67), (3, 6, 600)] {
            let a = dense(m, k, 0x9E3779B9 + (m * k) as u64);
            let b = dense(k, n, 0x85EBCA6B + (k * n) as u64);
            assert_bits_eq(&a.matmul(&b), &a.matmul_reference(&b), "matmul [{m},{k}]x[{k},{n}]");
        }
    }

    #[test]
    fn fused_kernels_match_transpose_paths_bitwise() {
        for &(m, k, n) in &[(6, 11, 5), (4, 96, 33), (130, 7, 130), (5, 6, 600)] {
            let a = dense(m, k, 11 + m as u64);
            let b = dense(m, n, 17 + n as u64);
            assert_bits_eq(&a.matmul_at_b(&b), &a.transpose().matmul_reference(&b), "matmul_at_b");
            let c = dense(n, k, 23 + k as u64);
            assert_bits_eq(&a.matmul_a_bt(&c), &a.matmul_reference(&c.transpose()), "matmul_a_bt");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 10., 10.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data, vec![6., 7., 8.]);
        a.scale(2.0);
        assert_eq!(a.data, vec![12., 14., 16.]);
    }

    #[test]
    fn col_sum_sums_rows() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.col_sum(), vec![4., 6.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn serde_roundtrip_is_bit_exact() {
        // Awkward values on purpose: subnormal, negative zero, extremes.
        let t = Tensor::from_vec(
            2,
            3,
            vec![0.1, -0.0, f32::MIN_POSITIVE / 8.0, f32::MAX, -f32::MIN, 1.0e-7],
        );
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!((back.rows, back.cols), (t.rows, t.cols));
        for (a, b) in t.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped to {b}");
        }
    }

    #[test]
    fn norm_and_diff() {
        let a = Tensor::from_vec(1, 2, vec![3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = Tensor::from_vec(1, 2, vec![3., 4.5]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }
}

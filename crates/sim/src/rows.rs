//! The unified block-tiled row data plane: memory budgets, tiled row
//! storage, and the chunked SIMD word kernels every hot loop in the
//! workspace runs on.
//!
//! The exhaustive spaces of the paper grow as `2^I`, so every node-major
//! table of the event-driven kernel — the good-value transpose, the
//! per-edge "other fanins" rows, the per-worker faulty rows — costs
//! `O(num_nodes × num_blocks)` words. Near the
//! [`crate::MAX_EXHAUSTIVE_INPUTS`] ceiling that is gigabytes *per
//! table*: the data plane, not the algorithm, becomes the scaling wall.
//! This module makes the data plane explicit:
//!
//! * [`MemoryBudget`] — a bound on the per-worker kernel working set.
//!   The tile width (in 64-vector blocks) is chosen as the largest `T`
//!   with `words_per_block × T × 8 ≤ budget`, so a worker streams the
//!   pattern space tile by tile instead of materializing full-width
//!   tables. `0`/unbounded keeps the PR-4 full-width fast path.
//! * [`RowMatrix`] — dense row-major `rows × width` word storage with
//!   disjoint-borrow row access, the one layout used for the transpose,
//!   the `others` table, and simulation scratch rows alike.
//! * The chunked ops ([`and_into`], [`or_diff_into`], [`popcount`], …) —
//!   an explicit SIMD inner layer: fixed-lane (`u64x4`/`u64x8`) chunks
//!   that LLVM lowers to vector instructions, with a scalar tail and a
//!   scalar (`LANES = 1`) fallback. The private `*_lanes` bodies take
//!   the lane count as a const parameter; the public entry points are
//!   pinned to [`LANES`].
//!
//! When `std::simd` stabilizes, the `*_lanes` bodies are the single
//! place to swap `[u64; L]` chunks for `Simd<u64, L>` — see
//! the `portable_simd` feature.
//!
//! Hot modules are forbidden (by the `hot_path_lint` gate and a
//! `#![deny(clippy::disallowed_methods)]` opt-in) from allocating raw
//! `Vec<u64>` word buffers; [`zeroed_words`] and [`RowMatrix`] are the
//! sanctioned allocation points, so every word buffer in the system is
//! accounted to this data plane.

use std::fmt;

/// Environment variable providing the default memory budget when a
/// [`MemoryBudget::Auto`] is resolved (`NDETECT_MEM_BUDGET=64MiB`).
/// Accepts the same forms as [`MemoryBudget::parse`]; unparsable values
/// are ignored (auto stays unbounded).
pub const MEM_BUDGET_ENV: &str = "NDETECT_MEM_BUDGET";

/// Lane count of the production chunked kernels (`u64x8` — one AVX-512
/// register, two AVX2 registers, four NEON registers; LLVM splits the
/// fixed-size chunk to whatever the target offers).
pub const LANES: usize = 8;

/// A bound on the per-worker working set of the row kernels.
///
/// The budget governs the **kernel working set** — the node-major
/// good-value tile, the per-edge `others` tile, and the per-worker
/// scratch rows — by shrinking the tile width (see
/// [`MemoryBudget::tile_width`]). It does not bound the detection-set
/// output itself (dense bitsets of `2^I` bits per fault), which is the
/// result, not scratch.
///
/// `Auto` resolves through the [`MEM_BUDGET_ENV`] environment variable
/// and defaults to unbounded — so existing callers keep the full-width
/// fast path unless a budget is asked for. Like thread counts, budgets
/// never change results, only peak memory; they are excluded from
/// artifact-store keys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemoryBudget {
    /// Resolve via [`MEM_BUDGET_ENV`], else unbounded.
    #[default]
    Auto,
    /// No bound: full-width tables (the PR-4 behaviour).
    Unbounded,
    /// At most this many bytes of kernel working set per worker.
    Bytes(u64),
}

impl MemoryBudget {
    /// A budget of `bytes` bytes; `0` means unbounded.
    #[must_use]
    pub fn from_bytes(bytes: u64) -> Self {
        if bytes == 0 {
            MemoryBudget::Unbounded
        } else {
            MemoryBudget::Bytes(bytes)
        }
    }

    /// Parses a human-friendly budget: `unbounded` / `none` / `0`, a
    /// plain byte count, or a count with a binary suffix (`K`/`KiB`,
    /// `M`/`MB`/`MiB`, `G`/`GiB` — all powers of 1024,
    /// case-insensitive), e.g. `16MiB`, `1g`, `65536`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the value does not parse.
    pub fn parse(text: &str) -> Result<Self, String> {
        let t = text.trim();
        let lower = t.to_ascii_lowercase();
        if matches!(lower.as_str(), "unbounded" | "none" | "auto") {
            return Ok(if lower == "auto" {
                MemoryBudget::Auto
            } else {
                MemoryBudget::Unbounded
            });
        }
        let strip = |suffixes: &[&str]| {
            suffixes
                .iter()
                .find_map(|suf| lower.strip_suffix(suf))
                .map(str::trim)
        };
        let (digits, multiplier) = if let Some(d) = strip(&["kib", "kb", "k"]) {
            (d, 1u64 << 10)
        } else if let Some(d) = strip(&["mib", "mb", "m"]) {
            (d, 1u64 << 20)
        } else if let Some(d) = strip(&["gib", "gb", "g"]) {
            (d, 1u64 << 30)
        } else if let Some(d) = strip(&["b"]) {
            (d, 1u64)
        } else {
            (lower.as_str(), 1u64)
        };
        let value: u64 = digits
            .parse()
            .map_err(|_| format!("bad memory budget `{text}` (try 16MiB, 1G, or a byte count)"))?;
        let bytes = value
            .checked_mul(multiplier)
            .ok_or_else(|| format!("memory budget `{text}` overflows"))?;
        Ok(MemoryBudget::from_bytes(bytes))
    }

    /// The effective byte bound: `None` when unbounded. `Auto` consults
    /// [`MEM_BUDGET_ENV`] (unparsable or empty values mean unbounded).
    #[must_use]
    pub fn resolve(self) -> Option<u64> {
        match self {
            MemoryBudget::Auto => match std::env::var(MEM_BUDGET_ENV) {
                Ok(raw) => MemoryBudget::parse(&raw)
                    .ok()
                    .and_then(MemoryBudget::resolve),
                Err(_) => None,
            },
            MemoryBudget::Unbounded => None,
            MemoryBudget::Bytes(b) => Some(b),
        }
    }

    /// Whether a resolved budget actually constrains anything.
    #[must_use]
    pub fn is_bounded(self) -> bool {
        self.resolve().is_some()
    }

    /// The tile width in 64-vector blocks for a kernel whose working
    /// set costs `words_per_block` 8-byte words per block: the largest
    /// `T ≤ num_blocks` with `words_per_block × T × 8 ≤ budget`,
    /// floored at 1 (a kernel always gets at least one block of
    /// working set, even under an impossibly small budget).
    #[must_use]
    pub fn tile_width(self, words_per_block: usize, num_blocks: usize) -> usize {
        let full = num_blocks.max(1);
        match self.resolve() {
            None => full,
            Some(bytes) => {
                let per_block = (words_per_block.max(1) as u64).saturating_mul(8);
                usize::try_from(bytes / per_block)
                    .unwrap_or(usize::MAX)
                    .clamp(1, full)
            }
        }
    }
}

impl fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryBudget::Auto => write!(f, "auto"),
            MemoryBudget::Unbounded => write!(f, "unbounded"),
            MemoryBudget::Bytes(b) => {
                if b % (1 << 30) == 0 {
                    write!(f, "{}GiB", b >> 30)
                } else if b % (1 << 20) == 0 {
                    write!(f, "{}MiB", b >> 20)
                } else if b % (1 << 10) == 0 {
                    write!(f, "{}KiB", b >> 10)
                } else {
                    write!(f, "{b}B")
                }
            }
        }
    }
}

/// The cumulative data-plane allocation meter: every byte allocated
/// through the sanctioned points below, exposed as
/// `data_plane_bytes_allocated_total` in the global metrics registry.
fn allocated_bytes() -> &'static ndetect_obs::Counter {
    static CELL: std::sync::OnceLock<std::sync::Arc<ndetect_obs::Counter>> =
        std::sync::OnceLock::new();
    CELL.get_or_init(|| ndetect_obs::global().counter("data_plane_bytes_allocated_total"))
}

/// Allocates a zeroed word buffer — the **single sanctioned allocation
/// point** for simulation word buffers. Hot modules are denied raw
/// `vec![0u64; …]` allocation (see the `hot_path_lint` gate); routing
/// every word buffer through here keeps the whole data plane visible in
/// one place (and metered: see `data_plane_bytes_allocated_total`).
#[must_use]
#[allow(clippy::disallowed_methods)]
pub fn zeroed_words(len: usize) -> Vec<u64> {
    allocated_bytes().add(8 * len as u64);
    vec![0u64; len]
}

/// Allocates a zeroed `u32` counter buffer — the sanctioned allocation
/// point for per-vector counter rows (e.g. the generator's gain pass),
/// the data plane's other bulk buffer shape. Same rationale as
/// [`zeroed_words`].
#[must_use]
#[allow(clippy::disallowed_methods)]
pub fn zeroed_counts(len: usize) -> Vec<u32> {
    allocated_bytes().add(4 * len as u64);
    vec![0u32; len]
}

/// Dense row-major `rows × width` word storage: the one tile layout
/// under the good-value transpose, the per-edge `others` table, and the
/// per-worker faulty-row arena.
///
/// `width` is a tile width in 64-vector blocks; row `r`'s words are
/// contiguous, so kernels stream a node's values across the tile with
/// unit stride.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowMatrix {
    words: Vec<u64>,
    rows: usize,
    width: usize,
}

impl RowMatrix {
    /// A zeroed `rows × width` matrix.
    #[must_use]
    pub fn zeroed(rows: usize, width: usize) -> Self {
        RowMatrix {
            words: zeroed_words(rows * width),
            rows,
            width,
        }
    }

    /// A `0 × 0` matrix (the placeholder for tables a kernel mode does
    /// not use — e.g. per-scratch tile tables in full-width mode).
    #[must_use]
    pub fn empty() -> Self {
        RowMatrix {
            words: Vec::new(),
            rows: 0,
            width: 0,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Row width in words (the tile width in blocks).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the matrix holds no words at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Row `r` as a word slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// Row `r` as a mutable word slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.width..(r + 1) * self.width]
    }

    /// The same column window `cols` of two **distinct** rows: `src`
    /// read-only, `dst` mutable — the disjoint split the fused gate
    /// update needs (changed-fanin row in, gate row out).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either row/column range is out of
    /// bounds.
    #[inline]
    pub fn row_window_pair(
        &mut self,
        src: usize,
        dst: usize,
        cols: std::ops::Range<usize>,
    ) -> (&[u64], &mut [u64]) {
        assert_ne!(src, dst, "row windows alias");
        assert!(cols.end <= self.width, "column window out of range");
        let (s0, d0) = (src * self.width, dst * self.width);
        if s0 < d0 {
            let (a, b) = self.words.split_at_mut(d0);
            (
                &a[s0 + cols.start..s0 + cols.end],
                &mut b[cols.start..cols.end],
            )
        } else {
            let (a, b) = self.words.split_at_mut(s0);
            (
                &b[cols.start..cols.end],
                &mut a[d0 + cols.start..d0 + cols.end],
            )
        }
    }

    /// All backing words, row-major.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// All backing words, mutable.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Rebuilds a matrix from row-major backing words; `None` when the
    /// word count is not exactly `rows × width`.
    #[must_use]
    pub fn from_words(rows: usize, width: usize, words: Vec<u64>) -> Option<Self> {
        if rows.checked_mul(width)? != words.len() {
            return None;
        }
        Some(RowMatrix { words, rows, width })
    }
}

// ---------------------------------------------------------------------
// Chunked SIMD kernels.
//
// Each op processes `L`-word chunks through a fixed-size array, which
// LLVM lowers to `L`-lane vector instructions (u64x4 ≈ AVX2, u64x8 ≈
// AVX-512 / unrolled AVX2), then finishes the remainder with a scalar
// tail. `L = 1` is the pure-scalar fallback. Production entry points pin
// `L =` [`LANES`]; the in-module tests check `L` ∈ {1, 4, 8} against a
// scalar reference.
// ---------------------------------------------------------------------

/// `dst[i] = f(dst[i], src[i])` in `L`-lane chunks.
#[inline(always)]
fn zip_with_lanes<const L: usize>(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let split = dst.len() - dst.len() % L;
    let (dh, dt) = dst.split_at_mut(split);
    let (sh, st) = src.split_at(split);
    for (dc, sc) in dh.chunks_exact_mut(L).zip(sh.chunks_exact(L)) {
        for (d, &s) in dc.iter_mut().zip(sc) {
            *d = f(*d, s);
        }
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d = f(*d, s);
    }
}

/// Lane-parameterized `dst &= src`.
#[inline]
fn and_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a & b);
}

/// Lane-parameterized `dst |= src`.
#[inline]
fn or_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a | b);
}

/// Lane-parameterized `dst ^= src`.
#[inline]
fn xor_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a ^ b);
}

/// Lane-parameterized `dst &= !src`.
#[inline]
fn andnot_into_lanes<const L: usize>(dst: &mut [u64], src: &[u64]) {
    zip_with_lanes::<L>(dst, src, |a, b| a & !b);
}

/// Lane-parameterized popcount over a word row.
#[inline]
#[must_use]
fn popcount_lanes<const L: usize>(row: &[u64]) -> u64 {
    let split = row.len() - row.len() % L;
    let (head, tail) = row.split_at(split);
    let mut lanes = [0u64; L];
    for chunk in head.chunks_exact(L) {
        for (acc, &w) in lanes.iter_mut().zip(chunk) {
            *acc += u64::from(w.count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for &w in tail {
        sum += u64::from(w.count_ones());
    }
    sum
}

/// Lane-parameterized `popcount(a & b)` (the paper's `M(g,f)` inner
/// loop).
#[inline]
#[must_use]
fn and_popcount_lanes<const L: usize>(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    let split = a.len() - a.len() % L;
    let mut lanes = [0u64; L];
    for (ca, cb) in a[..split].chunks_exact(L).zip(b[..split].chunks_exact(L)) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *acc += u64::from((x & y).count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        sum += u64::from((x & y).count_ones());
    }
    sum
}

/// Lane-parameterized `popcount(a & !b)` (the gain pass's
/// `|T(f) \ chosen|`).
#[inline]
#[must_use]
fn andnot_popcount_lanes<const L: usize>(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    let split = a.len() - a.len() % L;
    let mut lanes = [0u64; L];
    for (ca, cb) in a[..split].chunks_exact(L).zip(b[..split].chunks_exact(L)) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *acc += u64::from((x & !y).count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        sum += u64::from((x & !y).count_ones());
    }
    sum
}

/// Lane-parameterized bitwise select: `dst[i] = (a[i] & mask[i]) |
/// (b[i] & !mask[i])` — take `a` where the mask is set, else `b`.
#[inline]
fn select_into_lanes<const L: usize>(dst: &mut [u64], mask: &[u64], a: &[u64], b: &[u64]) {
    assert!(
        dst.len() == mask.len() && dst.len() == a.len() && dst.len() == b.len(),
        "row length mismatch"
    );
    let split = dst.len() - dst.len() % L;
    let (dh, dt) = dst.split_at_mut(split);
    let chunks = dh
        .chunks_exact_mut(L)
        .zip(mask[..split].chunks_exact(L))
        .zip(a[..split].chunks_exact(L))
        .zip(b[..split].chunks_exact(L));
    for (((dc, mc), ca), cb) in chunks {
        for (((d, &m), &x), &y) in dc.iter_mut().zip(mc).zip(ca).zip(cb) {
            *d = (x & m) | (y & !m);
        }
    }
    let tail = dt
        .iter_mut()
        .zip(&mask[split..])
        .zip(&a[split..])
        .zip(&b[split..]);
    for (((d, &m), &x), &y) in tail {
        *d = (x & m) | (y & !m);
    }
}

/// Lane-parameterized difference-accumulate: `det[i] |= a[i] ^ b[i]`,
/// returning the OR-fold of all differences (zero ⇒ the rows are
/// identical) — the detection/frontier primitive of the event kernel.
#[inline]
fn or_diff_into_lanes<const L: usize>(det: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    assert!(
        det.len() == a.len() && det.len() == b.len(),
        "row length mismatch"
    );
    let split = det.len() - det.len() % L;
    let (dh, dt) = det.split_at_mut(split);
    let mut lanes = [0u64; L];
    let chunks = dh
        .chunks_exact_mut(L)
        .zip(a[..split].chunks_exact(L))
        .zip(b[..split].chunks_exact(L));
    for ((dc, ca), cb) in chunks {
        for (((d, acc), &x), &y) in dc.iter_mut().zip(lanes.iter_mut()).zip(ca).zip(cb) {
            let diff = x ^ y;
            *acc |= diff;
            *d |= diff;
        }
    }
    let mut any = lanes.iter().fold(0, |acc, &l| acc | l);
    for ((d, &x), &y) in dt.iter_mut().zip(&a[split..]).zip(&b[split..]) {
        let diff = x ^ y;
        any |= diff;
        *d |= diff;
    }
    any
}

/// Lane-parameterized `OR-fold of a ^ b` without accumulation (the
/// "did anything change" probe).
#[inline]
#[must_use]
fn diff_any_lanes<const L: usize>(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    let split = a.len() - a.len() % L;
    let mut lanes = [0u64; L];
    for (ca, cb) in a[..split].chunks_exact(L).zip(b[..split].chunks_exact(L)) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *acc |= x ^ y;
        }
    }
    let mut any = lanes.iter().fold(0, |acc, &l| acc | l);
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        any |= x ^ y;
    }
    any
}

// Production entry points, pinned to `LANES`.

/// `dst &= src`.
#[inline]
pub fn and_into(dst: &mut [u64], src: &[u64]) {
    and_into_lanes::<LANES>(dst, src);
}

/// `dst |= src`.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    or_into_lanes::<LANES>(dst, src);
}

/// `dst ^= src`.
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    xor_into_lanes::<LANES>(dst, src);
}

/// `dst &= !src`.
#[inline]
pub fn andnot_into(dst: &mut [u64], src: &[u64]) {
    andnot_into_lanes::<LANES>(dst, src);
}

/// In-place complement of a row.
#[inline]
pub fn not_in_place(row: &mut [u64]) {
    for w in row {
        *w = !*w;
    }
}

/// Popcount of a row.
#[inline]
#[must_use]
pub fn popcount(row: &[u64]) -> u64 {
    popcount_lanes::<LANES>(row)
}

/// `popcount(a & b)`.
#[inline]
#[must_use]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    and_popcount_lanes::<LANES>(a, b)
}

/// `popcount(a & !b)`.
#[inline]
#[must_use]
pub fn andnot_popcount(a: &[u64], b: &[u64]) -> u64 {
    andnot_popcount_lanes::<LANES>(a, b)
}

/// Bitwise select: `dst[i] = (a[i] & mask[i]) | (b[i] & !mask[i])` —
/// take `a` where the mask is set, else `b`.
#[inline]
pub fn select_into(dst: &mut [u64], mask: &[u64], a: &[u64], b: &[u64]) {
    select_into_lanes::<LANES>(dst, mask, a, b);
}

/// `det |= a ^ b`, returning the OR-fold of the differences.
#[inline]
pub fn or_diff_into(det: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    or_diff_into_lanes::<LANES>(det, a, b)
}

/// OR-fold of `a ^ b`.
#[inline]
#[must_use]
pub fn diff_any(a: &[u64], b: &[u64]) -> u64 {
    diff_any_lanes::<LANES>(a, b)
}

/// The fused single-pass gate update of the event kernel's fast path:
/// `dst[i] = op(others[i], changed[i])`, OR the difference against
/// `good` into `det` when observing, and return the OR-fold of all
/// differences (zero ⇒ the gate stays off the frontier). One streaming
/// pass over four rows instead of three.
#[inline]
pub fn fused_gate_update(
    others: &[u64],
    changed: &[u64],
    good: &[u64],
    dst: &mut [u64],
    det: Option<&mut [u64]>,
    op: impl Fn(u64, u64) -> u64,
) -> u64 {
    let mut any = 0u64;
    match det {
        Some(det) => {
            for i in 0..dst.len() {
                let out = op(others[i], changed[i]);
                let diff = out ^ good[i];
                any |= diff;
                det[i] |= diff;
                dst[i] = out;
            }
        }
        None => {
            for i in 0..dst.len() {
                let out = op(others[i], changed[i]);
                any |= out ^ good[i];
                dst[i] = out;
            }
        }
    }
    any
}

/// Pairwise fold step over two rows: `dst[i] = f(dst[i], src[i])` —
/// the generic building block of the `others`-table exclusive scans.
#[inline]
pub fn fold_into(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64) {
    zip_with_lanes::<LANES>(dst, src, f);
}

/// Hook for `std::simd`: when portable SIMD stabilizes, implementing
/// this module (behind a `portable_simd` cfg) with `Simd<u64, L>`
/// loads/stores replaces the `[u64; L]` chunk bodies above without
/// touching any call site — the lane-parameterized bodies are already the
/// shape `Simd` wants.
#[cfg(portable_simd)]
pub mod portable_simd {
    // Intentionally empty: `--cfg portable_simd` is reserved until
    // `std::simd` ships on stable. The chunked kernels above are the
    // stable-toolchain implementation of the same contract.
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn budget_parsing_accepts_human_forms() {
        assert_eq!(MemoryBudget::parse("0").unwrap(), MemoryBudget::Unbounded);
        assert_eq!(
            MemoryBudget::parse("unbounded").unwrap(),
            MemoryBudget::Unbounded
        );
        assert_eq!(MemoryBudget::parse("auto").unwrap(), MemoryBudget::Auto);
        assert_eq!(
            MemoryBudget::parse("65536").unwrap(),
            MemoryBudget::Bytes(65536)
        );
        assert_eq!(
            MemoryBudget::parse("16MiB").unwrap(),
            MemoryBudget::Bytes(16 << 20)
        );
        assert_eq!(
            MemoryBudget::parse("16mb").unwrap(),
            MemoryBudget::Bytes(16 << 20)
        );
        assert_eq!(
            MemoryBudget::parse("2k").unwrap(),
            MemoryBudget::Bytes(2048)
        );
        assert_eq!(
            MemoryBudget::parse("1G").unwrap(),
            MemoryBudget::Bytes(1 << 30)
        );
        assert!(MemoryBudget::parse("zebra").is_err());
        assert!(MemoryBudget::parse("12QiB").is_err());
    }

    #[test]
    fn budget_display_round_trips() {
        for b in [
            MemoryBudget::Auto,
            MemoryBudget::Unbounded,
            MemoryBudget::Bytes(16 << 20),
            MemoryBudget::Bytes(3 << 10),
            MemoryBudget::Bytes(1 << 30),
            MemoryBudget::Bytes(1234),
        ] {
            let text = b.to_string();
            assert_eq!(MemoryBudget::parse(&text).unwrap(), b, "{text}");
        }
    }

    #[test]
    fn tile_width_fits_the_budget() {
        // 100 words/block = 800 bytes/block; 4 KiB fits 5 blocks.
        let b = MemoryBudget::Bytes(4096);
        assert_eq!(b.tile_width(100, 64), 5);
        // Never wider than the space, never narrower than 1.
        assert_eq!(b.tile_width(100, 3), 3);
        assert_eq!(MemoryBudget::Bytes(1).tile_width(100, 64), 1);
        assert_eq!(MemoryBudget::Unbounded.tile_width(100, 64), 64);
        // Zero blocks still yields a sane width.
        assert_eq!(MemoryBudget::Unbounded.tile_width(100, 0), 1);
    }

    #[test]
    fn row_matrix_shapes_and_access() {
        let mut m = RowMatrix::zeroed(3, 4);
        assert_eq!((m.num_rows(), m.width()), (3, 4));
        m.row_mut(1).fill(7);
        assert_eq!(m.row(0), &[0; 4]);
        assert_eq!(m.row(1), &[7; 4]);
        let (src, dst) = m.row_window_pair(1, 2, 1..3);
        assert_eq!(src, &[7, 7]);
        dst.copy_from_slice(src);
        assert_eq!(m.row(2), &[0, 7, 7, 0]);
        // Reverse order split (src above dst).
        let (src, dst) = m.row_window_pair(2, 0, 0..4);
        dst.copy_from_slice(src);
        assert_eq!(m.row(0), &[0, 7, 7, 0]);
        assert!(RowMatrix::from_words(2, 3, vec![0; 6]).is_some());
        assert!(RowMatrix::from_words(2, 3, vec![0; 5]).is_none());
        assert!(RowMatrix::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn row_window_pair_rejects_aliasing() {
        let mut m = RowMatrix::zeroed(2, 2);
        let _ = m.row_window_pair(1, 1, 0..2);
    }

    /// Every lane width must agree with the scalar reference on an
    /// awkward length (not a multiple of any lane count).
    #[test]
    fn all_lane_widths_agree_with_scalar() {
        fn pattern(n: usize, salt: u64) -> Vec<u64> {
            (0..n as u64)
                .map(|i| {
                    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).wrapping_add(i.rotate_left(13))
                })
                .collect()
        }
        let n = 37;
        let a = pattern(n, 0xDEAD);
        let b = pattern(n, 0xBEEF);
        let c = pattern(n, 0x1234);

        macro_rules! check_zip {
            ($f:ident, $scalar:expr) => {{
                let reference: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| $scalar(x, y)).collect();
                let mut d1 = a.clone();
                $f::<1>(&mut d1, &b);
                let mut d4 = a.clone();
                $f::<4>(&mut d4, &b);
                let mut d8 = a.clone();
                $f::<8>(&mut d8, &b);
                assert_eq!(d1, reference, stringify!($f));
                assert_eq!(d4, reference, stringify!($f));
                assert_eq!(d8, reference, stringify!($f));
            }};
        }
        check_zip!(and_into_lanes, |x: u64, y: u64| x & y);
        check_zip!(or_into_lanes, |x: u64, y: u64| x | y);
        check_zip!(xor_into_lanes, |x: u64, y: u64| x ^ y);
        check_zip!(andnot_into_lanes, |x: u64, y: u64| x & !y);

        let pop_ref: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
        assert_eq!(popcount_lanes::<1>(&a), pop_ref);
        assert_eq!(popcount_lanes::<4>(&a), pop_ref);
        assert_eq!(popcount_lanes::<8>(&a), pop_ref);

        let andpop_ref: u64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum();
        assert_eq!(and_popcount_lanes::<1>(&a, &b), andpop_ref);
        assert_eq!(and_popcount_lanes::<4>(&a, &b), andpop_ref);
        assert_eq!(and_popcount_lanes::<8>(&a, &b), andpop_ref);

        let andnotpop_ref: u64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| u64::from((x & !y).count_ones()))
            .sum();
        assert_eq!(andnot_popcount_lanes::<1>(&a, &b), andnotpop_ref);
        assert_eq!(andnot_popcount_lanes::<4>(&a, &b), andnotpop_ref);
        assert_eq!(andnot_popcount_lanes::<8>(&a, &b), andnotpop_ref);

        let sel_ref: Vec<u64> = (0..n).map(|i| (b[i] & a[i]) | (c[i] & !a[i])).collect();
        for lanes in [1usize, 4, 8] {
            let mut d = zeroed_words(n);
            match lanes {
                1 => select_into_lanes::<1>(&mut d, &a, &b, &c),
                4 => select_into_lanes::<4>(&mut d, &a, &b, &c),
                _ => select_into_lanes::<8>(&mut d, &a, &b, &c),
            }
            assert_eq!(d, sel_ref, "select lanes={lanes}");
        }

        let any_ref = a.iter().zip(&b).fold(0u64, |acc, (&x, &y)| acc | (x ^ y));
        assert_eq!(diff_any_lanes::<1>(&a, &b), any_ref);
        assert_eq!(diff_any_lanes::<4>(&a, &b), any_ref);
        assert_eq!(diff_any_lanes::<8>(&a, &b), any_ref);

        for lanes in [1usize, 4, 8] {
            let mut det = c.clone();
            let any = match lanes {
                1 => or_diff_into_lanes::<1>(&mut det, &a, &b),
                4 => or_diff_into_lanes::<4>(&mut det, &a, &b),
                _ => or_diff_into_lanes::<8>(&mut det, &a, &b),
            };
            assert_eq!(any, any_ref, "or_diff lanes={lanes}");
            let det_ref: Vec<u64> = (0..n).map(|i| c[i] | (a[i] ^ b[i])).collect();
            assert_eq!(det, det_ref, "or_diff det lanes={lanes}");
        }
    }

    #[test]
    fn fused_gate_update_matches_naive() {
        let others = [0b1100u64, 0b1010, u64::MAX];
        let changed = [0b1010u64, 0b0110, 0];
        let good = [0b1000u64, 0b0010, 0];
        let mut dst = [0u64; 3];
        let mut det = [0u64; 3];
        let any = fused_gate_update(
            &others,
            &changed,
            &good,
            &mut dst,
            Some(&mut det),
            |e, v| e & v,
        );
        assert_eq!(dst, [0b1000, 0b0010, 0]);
        assert_eq!(det, [0, 0, 0]);
        assert_eq!(any, 0);
        // A differing case accumulates and reports.
        let any = fused_gate_update(
            &others,
            &changed,
            &good,
            &mut dst,
            Some(&mut det),
            |e, v| e | v,
        );
        assert_ne!(any, 0);
        assert_eq!(det[0], (0b1100 | 0b1010) ^ 0b1000);
        // Without a det row the fold result is the same.
        let any2 = fused_gate_update(&others, &changed, &good, &mut dst, None, |e, v| e | v);
        assert_eq!(any2, any);
    }

    #[test]
    fn zeroed_words_is_zeroed() {
        assert_eq!(zeroed_words(5), vec![0u64; 5]);
        assert!(zeroed_words(0).is_empty());
    }

    #[test]
    fn env_resolution_prefers_explicit_budgets() {
        // Explicit budgets never consult the environment.
        assert_eq!(MemoryBudget::Bytes(10).resolve(), Some(10));
        assert_eq!(MemoryBudget::Unbounded.resolve(), None);
    }
}

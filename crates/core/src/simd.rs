//! Explicit-SIMD kernels for the single-sample dictionary scan.
//!
//! The scan tests every entry with `(input & mask) == key` over `stride`
//! words. This module vectorizes it over an entry-blocked layout: the
//! mask/key words of [`BLOCK`] = 4 consecutive entries are interleaved
//! word-by-word, so one broadcast input word tests four entries per vector
//! compare ([`scan_blocked`]: a `u64x4` register on AVX2, two `u64x2`
//! halves on SSE2/NEON, half a `u64x8` register on AVX-512). Only callers
//! that hand in raw bits reach it; feature-level inference, single or
//! batched, matches through the entry-bitmap index ([`crate::index`]).
//!
//! Blocked layout, for entries `e0..e3` of a block with stride 3:
//!
//! ```text
//! flat    (entry-major): e0w0 e0w1 e0w2 | e1w0 e1w1 e1w2 | e2w0 ... e3w2
//! blocked (word-major):  e0w0 e1w0 e2w0 e3w0 | e0w1 e1w1 e2w1 e3w1 | e0w2 ...
//!                        └───── one u64x4 load per word ─────┘
//! ```
//!
//! Only *full* blocks are stored (`n_entries / 4` of them); the
//! `n_entries % 4` tail is scanned by the scalar reference path over the
//! flat arrays, which always remain the source of truth. Padding partial
//! blocks with ghost entries would be hazardous: an all-zero mask/key
//! entry matches every input.
//!
//! Kernels are selected once per process ([`Kernel::selected`]) from
//! runtime CPU feature detection, overridable with
//! `BOLT_KERNEL=scalar|sse2|avx2|avx512|neon` for debugging and CI. Every
//! kernel emits matches in ascending entry order — the same order as the
//! scalar scan — so downstream `f64` vote accumulation stays bit-identical.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! is `deny(unsafe_code)` elsewhere): `std::arch` intrinsics are unsafe to
//! *call* on hosts without the feature, which the dispatcher rules out
//! before handing out a kernel, and the loads are plain unaligned reads at
//! indices the dispatcher bounds-checks up front.

use std::sync::OnceLock;

/// Entries per block: one 256-bit register (or two 128-bit halves) of
/// `u64` lanes.
pub const BLOCK: usize = 4;

/// A single-sample scan backend over the blocked layout.
///
/// `Scalar` is the reference semantics; the SIMD variants must agree with
/// it bit-for-bit on every input (pinned by the differential harness and
/// the `kernels` proptest suite).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable scalar fallback over the flat arrays — reference semantics.
    Scalar,
    /// x86-64 SSE2: two `u64x2` halves per block.
    Sse2,
    /// x86-64 AVX2: one `u64x4` register per block.
    Avx2,
    /// x86-64 AVX-512F: two blocks per `u64x8` register.
    Avx512,
    /// AArch64 NEON: two `u64x2` halves per block.
    Neon,
}

/// The resolved scan routine over the blocked prefix of a dictionary;
/// see [`scan_fn`].
pub type ScanFn = fn(&[u64], &[u64], usize, &[u64], &mut dyn FnMut(u32));

impl Kernel {
    /// Every kernel this build knows about, whether or not the host
    /// supports it.
    pub const ALL: [Kernel; 5] = [
        Kernel::Scalar,
        Kernel::Sse2,
        Kernel::Avx2,
        Kernel::Avx512,
        Kernel::Neon,
    ];

    /// The kernel's lowercase name, as spelled in `BOLT_KERNEL`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
            Kernel::Neon => "neon",
        }
    }

    /// Parses a `BOLT_KERNEL` value (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "sse2" => Some(Kernel::Sse2),
            "avx2" => Some(Kernel::Avx2),
            "avx512" => Some(Kernel::Avx512),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    /// Whether the running host can execute this kernel.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            // The AVX-512 kernels fall back to 256-bit ops for odd tail
            // blocks, so they need AVX2 alongside AVX-512F (every AVX-512
            // part ships both).
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// The best kernel the host supports:
    /// AVX-512 > AVX2 > SSE2 > NEON > scalar.
    #[must_use]
    pub fn detect() -> Kernel {
        for kernel in [Kernel::Avx512, Kernel::Avx2, Kernel::Sse2, Kernel::Neon] {
            if kernel.is_available() {
                return kernel;
            }
        }
        Kernel::Scalar
    }

    /// Every kernel the host can execute (always includes `Scalar`), in
    /// `ALL` order — what the differential harness sweeps.
    #[must_use]
    pub fn all_supported() -> Vec<Kernel> {
        Self::ALL.into_iter().filter(|k| k.is_available()).collect()
    }

    /// The process-wide kernel: `BOLT_KERNEL` if set to a known, available
    /// kernel, otherwise [`Kernel::detect`]. Resolved once and cached; an
    /// unknown or unsupported override warns on stderr (once) and falls
    /// back to detection rather than failing the process.
    #[must_use]
    pub fn selected() -> Kernel {
        static SELECTED: OnceLock<Kernel> = OnceLock::new();
        *SELECTED.get_or_init(|| match std::env::var("BOLT_KERNEL") {
            Ok(value) => match Kernel::from_name(&value) {
                Some(kernel) if kernel.is_available() => kernel,
                Some(kernel) => {
                    let fallback = Kernel::detect();
                    eprintln!(
                        "BOLT_KERNEL={value}: {} is not available on this host; \
                         falling back to {}",
                        kernel.name(),
                        fallback.name()
                    );
                    fallback
                }
                None => {
                    let fallback = Kernel::detect();
                    eprintln!(
                        "BOLT_KERNEL={value}: unknown kernel (expected \
                         scalar|sse2|avx2|avx512|neon); falling back to {}",
                        fallback.name()
                    );
                    fallback
                }
            },
            Err(_) => Kernel::detect(),
        })
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of words in the blocked arrays for a dictionary shape: full
/// blocks only, `stride` words for each of the block's [`BLOCK`] entries.
#[must_use]
pub fn blocked_len(n_entries: usize, stride: usize) -> usize {
    (n_entries / BLOCK) * BLOCK * stride
}

/// Interleaves a flat entry-major scan array (`stride` words per entry)
/// into the blocked word-major layout: word `w` of entry `block * 4 + lane`
/// lands at `(block * stride + w) * 4 + lane`. Partial tail entries are
/// omitted (scanned via the flat arrays).
#[must_use]
pub fn interleave_blocked(flat: &[u64], stride: usize) -> Vec<u64> {
    assert!(stride > 0, "stride must be positive");
    assert_eq!(flat.len() % stride, 0, "flat array must be entry-aligned");
    let n_entries = flat.len() / stride;
    let n_blocks = n_entries / BLOCK;
    let mut blocked = vec![0u64; n_blocks * BLOCK * stride];
    for block in 0..n_blocks {
        for lane in 0..BLOCK {
            let entry = block * BLOCK + lane;
            for w in 0..stride {
                blocked[(block * stride + w) * BLOCK + lane] = flat[entry * stride + w];
            }
        }
    }
    blocked
}

/// The resolved scan routine for a kernel: a plain function pointer, so
/// engines dispatch once at selection rather than per block. Unavailable
/// kernels resolve to the scalar routine.
#[must_use]
pub fn scan_fn(kernel: Kernel) -> ScanFn {
    match kernel {
        Kernel::Scalar => scan_blocked_scalar,
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse2 if kernel.is_available() => scan_blocked_sse2_checked,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if kernel.is_available() => scan_blocked_avx2_checked,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 if kernel.is_available() => scan_blocked_avx512_checked,
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon if kernel.is_available() => scan_blocked_neon_checked,
        _ => scan_blocked_scalar,
    }
}

/// Scans the blocked prefix of a dictionary with `kernel`, invoking
/// `on_match` with each matching entry index in ascending order.
///
/// `blk_mask`/`blk_key` are the interleaved arrays from
/// [`interleave_blocked`]; `words` is the input mask truncated to at most
/// `stride` words (input words beyond `words.len()` are treated as zero,
/// so key bits there reject — the same narrow-input semantics as the
/// scalar scan). Entries past the last full block are *not* visited.
///
/// # Panics
///
/// Panics if the blocked arrays disagree in length, are not whole blocks
/// of `stride` words, or `words` is longer than `stride`.
pub fn scan_blocked(
    kernel: Kernel,
    blk_mask: &[u64],
    blk_key: &[u64],
    stride: usize,
    words: &[u64],
    on_match: &mut dyn FnMut(u32),
) {
    check_blocked_shape(blk_mask, blk_key, stride, words);
    scan_fn(kernel)(blk_mask, blk_key, stride, words, on_match);
}

/// The bounds contract every kernel relies on; asserted before any unsafe
/// kernel runs so the raw loads inside are in range by construction.
fn check_blocked_shape(blk_mask: &[u64], blk_key: &[u64], stride: usize, words: &[u64]) {
    assert!(stride > 0, "stride must be positive");
    assert_eq!(blk_mask.len(), blk_key.len(), "blocked array shapes differ");
    assert_eq!(
        blk_mask.len() % (stride * BLOCK),
        0,
        "blocked arrays must hold whole blocks"
    );
    assert!(words.len() <= stride, "input wider than dictionary stride");
}

/// Scalar reference over the *blocked* layout. The flat scalar scan in
/// `dictionary.rs` is the semantic source of truth; this routine exists so
/// `scan_fn(Scalar)` has the same signature as the SIMD kernels and so the
/// blocked interleave itself is exercised without SIMD.
fn scan_blocked_scalar(
    blk_mask: &[u64],
    blk_key: &[u64],
    stride: usize,
    words: &[u64],
    on_match: &mut dyn FnMut(u32),
) {
    let block_words = stride * BLOCK;
    let n_blocks = blk_mask.len() / block_words;
    let n = words.len().min(stride);
    // Zero-padded input, mirroring the SIMD kernels: a padded word
    // contributes `(0 & mask) ^ key = key`, which is exactly the
    // narrow-input reject semantics.
    let mut padded = vec![0u64; stride];
    padded[..n].copy_from_slice(&words[..n]);
    for block in 0..n_blocks {
        let base = block * block_words;
        let mut acc = [0u64; BLOCK];
        for (w, &input) in padded.iter().enumerate() {
            let row = base + w * BLOCK;
            for (lane, a) in acc.iter_mut().enumerate() {
                *a |= (input & blk_mask[row + lane]) ^ blk_key[row + lane];
            }
        }
        for (lane, &a) in acc.iter().enumerate() {
            if a == 0 {
                on_match((block * BLOCK + lane) as u32);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::BLOCK;
    use core::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_castsi256_pd, _mm256_cmpeq_epi64,
        _mm256_loadu_si256, _mm256_movemask_pd, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_xor_si256, _mm512_and_si512, _mm512_castsi256_si512,
        _mm512_cmpeq_epi64_mask, _mm512_inserti64x4, _mm512_or_si512, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_xor_si512, _mm_and_si128, _mm_castsi128_ps, _mm_cmpeq_epi32,
        _mm_loadu_si128, _mm_movemask_ps, _mm_or_si128, _mm_set1_epi64x, _mm_setzero_si128,
        _mm_xor_si128,
    };

    /// One `u64x4` register per block: broadcast the input word, fold
    /// `(input & mask) ^ key` across the stride, then compare the four
    /// accumulators against zero at once.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and the shapes satisfy
    /// [`super::check_blocked_shape`] (all loads below stay in bounds).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_blocked_avx2(
        blk_mask: &[u64],
        blk_key: &[u64],
        stride: usize,
        words: &[u64],
        on_match: &mut dyn FnMut(u32),
    ) {
        let block_words = stride * BLOCK;
        let n_blocks = blk_mask.len() / block_words;
        let n = words.len().min(stride);
        let zero = _mm256_setzero_si256();
        // Broadcast the input once per scan, zero-padded to the stride:
        // a padded word contributes `(0 & mask) ^ key = key`, which is
        // exactly the narrow-input reject semantics — so the per-block
        // loop needs no separate tail fold and no per-word broadcast.
        let splat: Vec<__m256i> = (0..stride)
            .map(|w| _mm256_set1_epi64x(if w < n { words[w] as i64 } else { 0 }))
            .collect();
        for block in 0..n_blocks {
            let base = block * block_words;
            let mut acc = zero;
            for (w, &input) in splat.iter().enumerate() {
                let row = base + w * BLOCK;
                let mask = _mm256_loadu_si256(blk_mask.as_ptr().add(row).cast::<__m256i>());
                let key = _mm256_loadu_si256(blk_key.as_ptr().add(row).cast::<__m256i>());
                acc = _mm256_or_si256(acc, _mm256_xor_si256(_mm256_and_si256(input, mask), key));
            }
            let hits =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(acc, zero))) as u32;
            if hits != 0 {
                for lane in 0..BLOCK {
                    if hits & (1 << lane) != 0 {
                        on_match((block * BLOCK + lane) as u32);
                    }
                }
            }
        }
    }

    /// Bitmask of fully-zero `u64` lanes across the two accumulator
    /// halves: bit `lane` is set iff that lane still matches. SSE2 has no
    /// 64-bit equality compare, so the test goes through
    /// `_mm_cmpeq_epi32`: a `u64` lane is zero iff both of its 32-bit
    /// halves compare equal to zero.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSE2 is available.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sse2_zero_lanes(acc_lo: __m128i, acc_hi: __m128i) -> u32 {
        let zero = _mm_setzero_si128();
        let eq_lo = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(acc_lo, zero))) as u32;
        let eq_hi = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(acc_hi, zero))) as u32;
        u32::from(eq_lo & 0b0011 == 0b0011)
            | (u32::from(eq_lo & 0b1100 == 0b1100) << 1)
            | (u32::from(eq_hi & 0b0011 == 0b0011) << 2)
            | (u32::from(eq_hi & 0b1100 == 0b1100) << 3)
    }

    /// Two `u64x2` halves per block. SSE2 has no 64-bit equality compare,
    /// so zero-testing goes through `_mm_cmpeq_epi32`: a `u64` lane is
    /// zero iff both of its 32-bit halves compare equal to zero.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSE2 is available and the shapes satisfy
    /// [`super::check_blocked_shape`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn scan_blocked_sse2(
        blk_mask: &[u64],
        blk_key: &[u64],
        stride: usize,
        words: &[u64],
        on_match: &mut dyn FnMut(u32),
    ) {
        let block_words = stride * BLOCK;
        let n_blocks = blk_mask.len() / block_words;
        let n = words.len().min(stride);
        // Input broadcast once per scan, zero-padded to the stride (see
        // the AVX2 kernel for why padding gives narrow-input semantics).
        let splat: Vec<__m128i> = (0..stride)
            .map(|w| _mm_set1_epi64x(if w < n { words[w] as i64 } else { 0 }))
            .collect();
        for block in 0..n_blocks {
            let base = block * block_words;
            let mut acc_lo = _mm_setzero_si128();
            let mut acc_hi = _mm_setzero_si128();
            for (w, &input) in splat.iter().enumerate() {
                let row = base + w * BLOCK;
                let mask_lo = _mm_loadu_si128(blk_mask.as_ptr().add(row).cast::<__m128i>());
                let mask_hi = _mm_loadu_si128(blk_mask.as_ptr().add(row + 2).cast::<__m128i>());
                let key_lo = _mm_loadu_si128(blk_key.as_ptr().add(row).cast::<__m128i>());
                let key_hi = _mm_loadu_si128(blk_key.as_ptr().add(row + 2).cast::<__m128i>());
                acc_lo = _mm_or_si128(acc_lo, _mm_xor_si128(_mm_and_si128(input, mask_lo), key_lo));
                acc_hi = _mm_or_si128(acc_hi, _mm_xor_si128(_mm_and_si128(input, mask_hi), key_hi));
            }
            let hits = sse2_zero_lanes(acc_lo, acc_hi);
            if hits != 0 {
                for lane in 0..BLOCK {
                    if hits & (1 << lane) != 0 {
                        on_match((block * BLOCK + lane) as u32);
                    }
                }
            }
        }
    }

    /// Two blocks per `u64x8` register: each 512-bit mask/key vector is
    /// assembled from two 256-bit block rows (the rows of consecutive
    /// blocks sit `stride * 4` words apart, so a single 512-bit load cannot
    /// span them), and `_mm512_cmpeq_epi64_mask` yields an 8-bit hit mask
    /// covering both blocks at once. An odd trailing block falls back to
    /// the AVX2 shape.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F *and* AVX2 are available and the shapes
    /// satisfy [`super::check_blocked_shape`].
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn scan_blocked_avx512(
        blk_mask: &[u64],
        blk_key: &[u64],
        stride: usize,
        words: &[u64],
        on_match: &mut dyn FnMut(u32),
    ) {
        let block_words = stride * BLOCK;
        let n_blocks = blk_mask.len() / block_words;
        let n = words.len().min(stride);
        let zero = _mm512_setzero_si512();
        // Input broadcast once per scan, zero-padded to the stride (see
        // the AVX2 kernel for why padding gives narrow-input semantics).
        let splat: Vec<__m512i> = (0..stride)
            .map(|w| _mm512_set1_epi64(if w < n { words[w] as i64 } else { 0 }))
            .collect();
        let paired = n_blocks / 2 * 2;
        let mut block = 0;
        while block < paired {
            let lo_base = block * block_words;
            let hi_base = (block + 1) * block_words;
            let mut acc = zero;
            for (w, &input) in splat.iter().enumerate() {
                let row = w * BLOCK;
                let mask = _mm512_inserti64x4::<1>(
                    _mm512_castsi256_si512(_mm256_loadu_si256(
                        blk_mask.as_ptr().add(lo_base + row).cast::<__m256i>(),
                    )),
                    _mm256_loadu_si256(blk_mask.as_ptr().add(hi_base + row).cast::<__m256i>()),
                );
                let key = _mm512_inserti64x4::<1>(
                    _mm512_castsi256_si512(_mm256_loadu_si256(
                        blk_key.as_ptr().add(lo_base + row).cast::<__m256i>(),
                    )),
                    _mm256_loadu_si256(blk_key.as_ptr().add(hi_base + row).cast::<__m256i>()),
                );
                acc = _mm512_or_si512(acc, _mm512_xor_si512(_mm512_and_si512(input, mask), key));
            }
            let hits = _mm512_cmpeq_epi64_mask(acc, zero);
            if hits != 0 {
                for lane in 0..2 * BLOCK {
                    if hits & (1 << lane) != 0 {
                        on_match((block * BLOCK + lane) as u32);
                    }
                }
            }
            block += 2;
        }
        if paired < n_blocks {
            // Odd trailing block: one AVX2-shaped pass reusing the low
            // halves of the 512-bit input splats.
            let base = paired * block_words;
            let zero256 = _mm256_setzero_si256();
            let mut acc = zero256;
            for (w, &input) in splat.iter().enumerate() {
                let row = base + w * BLOCK;
                let mask = _mm256_loadu_si256(blk_mask.as_ptr().add(row).cast::<__m256i>());
                let key = _mm256_loadu_si256(blk_key.as_ptr().add(row).cast::<__m256i>());
                let input = core::arch::x86_64::_mm512_castsi512_si256(input);
                acc = _mm256_or_si256(acc, _mm256_xor_si256(_mm256_and_si256(input, mask), key));
            }
            let hits =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(acc, zero256))) as u32;
            if hits != 0 {
                for lane in 0..BLOCK {
                    if hits & (1 << lane) != 0 {
                        on_match((paired * BLOCK + lane) as u32);
                    }
                }
            }
        }
    }
}

/// Safe `ScanFn` wrapper; only handed out by [`scan_fn`] after the AVX2
/// availability check.
#[cfg(target_arch = "x86_64")]
fn scan_blocked_avx2_checked(
    blk_mask: &[u64],
    blk_key: &[u64],
    stride: usize,
    words: &[u64],
    on_match: &mut dyn FnMut(u32),
) {
    check_blocked_shape(blk_mask, blk_key, stride, words);
    debug_assert!(is_x86_feature_detected!("avx2"));
    // SAFETY: `scan_fn` resolves this wrapper only when AVX2 is detected,
    // and `check_blocked_shape` establishes the bounds the kernel's raw
    // loads rely on.
    unsafe { x86::scan_blocked_avx2(blk_mask, blk_key, stride, words, on_match) }
}

/// Safe `ScanFn` wrapper; only handed out by [`scan_fn`] after the SSE2
/// availability check.
#[cfg(target_arch = "x86_64")]
fn scan_blocked_sse2_checked(
    blk_mask: &[u64],
    blk_key: &[u64],
    stride: usize,
    words: &[u64],
    on_match: &mut dyn FnMut(u32),
) {
    check_blocked_shape(blk_mask, blk_key, stride, words);
    debug_assert!(is_x86_feature_detected!("sse2"));
    // SAFETY: as for AVX2 above, with SSE2 detected.
    unsafe { x86::scan_blocked_sse2(blk_mask, blk_key, stride, words, on_match) }
}

/// Safe `ScanFn` wrapper; only handed out by [`scan_fn`] after the AVX-512
/// availability check.
#[cfg(target_arch = "x86_64")]
fn scan_blocked_avx512_checked(
    blk_mask: &[u64],
    blk_key: &[u64],
    stride: usize,
    words: &[u64],
    on_match: &mut dyn FnMut(u32),
) {
    check_blocked_shape(blk_mask, blk_key, stride, words);
    debug_assert!(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2"));
    // SAFETY: `scan_fn` resolves this wrapper only when AVX-512F and AVX2
    // are detected, and `check_blocked_shape` establishes the bounds the
    // kernel's raw loads rely on.
    unsafe { x86::scan_blocked_avx512(blk_mask, blk_key, stride, words, on_match) }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::BLOCK;
    use core::arch::aarch64::{
        uint64x2_t, vandq_u64, vdupq_n_u64, veorq_u64, vgetq_lane_u64, vld1q_u64, vorrq_u64,
    };

    /// Two `u64x2` halves per block, mirroring the SSE2 shape.
    ///
    /// # Safety
    ///
    /// Caller must ensure NEON is available and the shapes satisfy
    /// [`super::check_blocked_shape`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn scan_blocked_neon(
        blk_mask: &[u64],
        blk_key: &[u64],
        stride: usize,
        words: &[u64],
        on_match: &mut dyn FnMut(u32),
    ) {
        let block_words = stride * BLOCK;
        let n_blocks = blk_mask.len() / block_words;
        let n = words.len().min(stride);
        // Input broadcast once per scan, zero-padded to the stride (see
        // the AVX2 kernel for why padding gives narrow-input semantics).
        let splat: Vec<uint64x2_t> = (0..stride)
            .map(|w| vdupq_n_u64(if w < n { words[w] } else { 0 }))
            .collect();
        for block in 0..n_blocks {
            let base = block * block_words;
            let mut acc_lo = vdupq_n_u64(0);
            let mut acc_hi = vdupq_n_u64(0);
            for (w, &input) in splat.iter().enumerate() {
                let row = base + w * BLOCK;
                let mask_lo = vld1q_u64(blk_mask.as_ptr().add(row));
                let mask_hi = vld1q_u64(blk_mask.as_ptr().add(row + 2));
                let key_lo = vld1q_u64(blk_key.as_ptr().add(row));
                let key_hi = vld1q_u64(blk_key.as_ptr().add(row + 2));
                acc_lo = vorrq_u64(acc_lo, veorq_u64(vandq_u64(input, mask_lo), key_lo));
                acc_hi = vorrq_u64(acc_hi, veorq_u64(vandq_u64(input, mask_hi), key_hi));
            }
            let base_id = (block * BLOCK) as u32;
            if vgetq_lane_u64(acc_lo, 0) == 0 {
                on_match(base_id);
            }
            if vgetq_lane_u64(acc_lo, 1) == 0 {
                on_match(base_id + 1);
            }
            if vgetq_lane_u64(acc_hi, 0) == 0 {
                on_match(base_id + 2);
            }
            if vgetq_lane_u64(acc_hi, 1) == 0 {
                on_match(base_id + 3);
            }
        }
    }
}

/// Safe `ScanFn` wrapper; only handed out by [`scan_fn`] after the NEON
/// availability check.
#[cfg(target_arch = "aarch64")]
fn scan_blocked_neon_checked(
    blk_mask: &[u64],
    blk_key: &[u64],
    stride: usize,
    words: &[u64],
    on_match: &mut dyn FnMut(u32),
) {
    check_blocked_shape(blk_mask, blk_key, stride, words);
    debug_assert!(std::arch::is_aarch64_feature_detected!("neon"));
    // SAFETY: as for the x86 wrappers, with NEON detected.
    unsafe { arm::scan_blocked_neon(blk_mask, blk_key, stride, words, on_match) }
}

/// Hints the CPU to pull the cache line holding `data[index]` toward L1
/// ahead of an upcoming read. Out-of-range indices and non-x86 hosts are
/// a no-op; prefetching never faults and never changes results — it only
/// hides the memory latency of the recombined-table probe behind the
/// bloom check that precedes it.
#[inline]
pub fn prefetch<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < data.len() {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: in-bounds pointer arithmetic; `_mm_prefetch` is a pure
        // hint and performs no dereference.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(index).cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat scalar reference: the exact semantics of `DictView::scan`.
    fn flat_matches(mask: &[u64], key: &[u64], stride: usize, words: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        for (idx, (m, k)) in mask
            .chunks_exact(stride)
            .zip(key.chunks_exact(stride))
            .enumerate()
        {
            let n = words.len().min(stride);
            let mut diff = 0u64;
            for w in 0..n {
                diff |= (words[w] & m[w]) ^ k[w];
            }
            for &kw in &k[n..] {
                diff |= kw;
            }
            if diff == 0 {
                out.push(idx as u32);
            }
        }
        out
    }

    /// Splitmix-ish deterministic word stream for layout tests.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn interleave_round_trips_word_positions() {
        let stride = 3;
        let n_entries = 9; // two full blocks + one tail entry
        let flat = words(7, n_entries * stride);
        let blocked = interleave_blocked(&flat, stride);
        assert_eq!(blocked.len(), blocked_len(n_entries, stride));
        for block in 0..n_entries / BLOCK {
            for lane in 0..BLOCK {
                for w in 0..stride {
                    assert_eq!(
                        blocked[(block * stride + w) * BLOCK + lane],
                        flat[(block * BLOCK + lane) * stride + w],
                        "block {block} lane {lane} word {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_available_kernel_agrees_with_the_flat_reference() {
        for (seed, stride, n_entries) in [(1u64, 1usize, 8usize), (2, 2, 12), (3, 5, 16), (4, 3, 4)]
        {
            let mask = words(seed, n_entries * stride);
            // Keys under the masks plus a few stray bits outside them, so
            // kernels also agree on corrupted key ⊄ mask entries.
            let mut key: Vec<u64> = words(seed + 100, n_entries * stride)
                .iter()
                .zip(&mask)
                .map(|(k, m)| k & m)
                .collect();
            key[0] |= !mask[0] & 1; // corrupt entry 0
            let blk_mask = interleave_blocked(&mask, stride);
            let blk_key = interleave_blocked(&key, stride);
            // Inputs: full width, narrow, empty — and one forced match
            // (input = key of entry 1, widened by mask semantics).
            let mut inputs = vec![words(seed + 200, stride), words(seed + 300, 1), vec![]];
            inputs.push(key[stride..2 * stride].to_vec());
            for input in &inputs {
                let expected = flat_matches(&mask, &key, stride, input);
                let in_block: Vec<u32> = expected
                    .iter()
                    .copied()
                    .filter(|&i| (i as usize) < (n_entries / BLOCK) * BLOCK)
                    .collect();
                for kernel in Kernel::all_supported() {
                    let mut got = Vec::new();
                    scan_blocked(kernel, &blk_mask, &blk_key, stride, input, &mut |i| {
                        got.push(i)
                    });
                    assert_eq!(
                        got,
                        in_block,
                        "kernel {kernel} seed {seed} stride {stride} input len {}",
                        input.len()
                    );
                }
            }
        }
    }

    #[test]
    fn all_zero_mask_entries_match_everything_in_every_kernel() {
        let stride = 2;
        let mask = vec![0u64; 4 * stride];
        let key = vec![0u64; 4 * stride];
        let blk_mask = interleave_blocked(&mask, stride);
        let blk_key = interleave_blocked(&key, stride);
        for kernel in Kernel::all_supported() {
            let mut got = Vec::new();
            scan_blocked(
                kernel,
                &blk_mask,
                &blk_key,
                stride,
                &[u64::MAX, 17],
                &mut |i| got.push(i),
            );
            assert_eq!(got, vec![0, 1, 2, 3], "kernel {kernel}");
        }
    }

    #[test]
    fn env_name_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::from_name(" AVX2 "), Some(Kernel::Avx2));
        assert_eq!(Kernel::from_name("AVX512"), Some(Kernel::Avx512));
        assert_eq!(Kernel::from_name("avx1024"), None);
        assert!(Kernel::Scalar.is_available());
        assert!(Kernel::all_supported().contains(&Kernel::detect()));
        assert!(Kernel::all_supported().contains(&Kernel::selected()));
    }

    #[test]
    fn prefetch_is_a_safe_no_op_out_of_range() {
        let data = [1u64, 2, 3];
        prefetch(&data, 0);
        prefetch(&data, 2);
        prefetch(&data, 3); // out of range: ignored
        prefetch::<u64>(&[], 0);
    }
}

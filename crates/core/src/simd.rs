//! A cache prefetch hint — the crate's one `unsafe` block (the crate is
//! `deny(unsafe_code)`; the `allow` is scoped to [`prefetch`]). No scan is
//! vectorized here: every inference path matches through the entry-bitmap
//! index ([`crate::index`]), which leaves no per-entry compare to vectorize.
//!
//! [`BLOCK`] survives only as the sizing unit the repo benchmark's
//! `scan_lanes` scratch uses, until the harness PR stops importing it.

/// Entries per block of the retired entry-blocked dictionary layout;
/// nothing in the library reads it (see the module docs).
pub const BLOCK: usize = 4;

/// Hints the CPU to pull the cache line holding `data[index]` toward L1
/// ahead of an upcoming read. Out-of-range indices and non-x86 hosts are
/// a no-op; prefetching never faults and never changes results — it only
/// hides the memory latency of the recombined-table probe behind the
/// bloom check that precedes it.
#[inline]
#[allow(unsafe_code)]
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

    #[test]
    fn prefetch_is_a_safe_no_op_out_of_range() {
        let data = [1u64, 2, 3];
        prefetch(&data, 0);
        prefetch(&data, 2);
        prefetch(&data, 3); // out of range: ignored
        prefetch::<u64>(&[], 0);
    }
}

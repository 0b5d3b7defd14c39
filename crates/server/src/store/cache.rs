//! Resident-bytes accounting and LRU victim selection for mapped
//! artifacts.
//!
//! The store maps artifacts lazily and must keep the total resident bytes
//! (each mapped file plus the index built on the heap when it was opened)
//! under the operator's `--resident-bytes` budget. This module is pure
//! bookkeeping — names and byte sizes in, eviction victims out — so the
//! policy is unit-testable without touching files or the registry. The
//! actual unmap is the registry's `remove_resident` (drop the last `Arc`
//! and the mmap goes with it); the cache only decides *who*.
//!
//! Pinning: only directory-managed artifacts are ever inserted here.
//! Models registered in memory (boltd `--model` flags, tests) have no
//! artifact to reload from, never enter the cache, and therefore can
//! never be evicted.

use std::collections::BTreeMap;

/// Byte ledger of resident (mapped) artifacts with an optional budget.
pub(crate) struct ResidentCache {
    /// `None` = unbounded (no `--resident-bytes` flag).
    budget: Option<u64>,
    /// name → resident bytes.
    resident: BTreeMap<String, u64>,
}

impl ResidentCache {
    /// An empty ledger under the given budget.
    pub(crate) fn new(budget: Option<u64>) -> Self {
        Self {
            budget,
            resident: BTreeMap::new(),
        }
    }

    /// Records `name` as resident at `bytes` (replacing a stale size on
    /// re-map).
    pub(crate) fn insert(&mut self, name: &str, bytes: u64) {
        self.resident.insert(name.to_owned(), bytes);
    }

    /// Forgets `name`; returns the bytes it held.
    pub(crate) fn remove(&mut self, name: &str) -> Option<u64> {
        self.resident.remove(name)
    }

    /// Mapped bytes of one resident name.
    pub(crate) fn bytes_of(&self, name: &str) -> Option<u64> {
        self.resident.get(name).copied()
    }

    /// Total resident bytes right now.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.resident
            .values()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Resident (mapped) artifact count.
    pub(crate) fn len(&self) -> usize {
        self.resident.len()
    }

    /// The next eviction victim, or `None` when the ledger fits the
    /// budget (or nothing but `protect` is left to evict).
    ///
    /// The victim is the least-recently-used resident name per
    /// `recency` (a name with no recency reading counts as oldest).
    /// `protect` — the name that just loaded — is never chosen, so a
    /// single artifact larger than the whole budget still serves: the
    /// budget bounds the *steady state*, not one model.
    pub(crate) fn victim(
        &self,
        protect: &str,
        mut recency: impl FnMut(&str) -> Option<u64>,
    ) -> Option<String> {
        let budget = self.budget?;
        if self.total_bytes() <= budget {
            return None;
        }
        self.resident
            .keys()
            .filter(|name| name.as_str() != protect)
            .map(|name| (recency(name).unwrap_or(0), name))
            .min()
            .map(|(_, name)| name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_budget_evicts_nothing() {
        let mut cache = ResidentCache::new(Some(100));
        cache.insert("a", 40);
        cache.insert("b", 60);
        assert_eq!(cache.total_bytes(), 100);
        assert_eq!(cache.victim("b", |_| Some(1)), None);
    }

    #[test]
    fn no_budget_never_evicts() {
        let mut cache = ResidentCache::new(None);
        for i in 0..100 {
            cache.insert(&format!("m{i}"), u64::MAX / 128);
        }
        assert_eq!(cache.victim("m0", |_| Some(1)), None);
    }

    #[test]
    fn lru_order_picks_the_coldest() {
        let mut cache = ResidentCache::new(Some(100));
        cache.insert("a", 50);
        cache.insert("b", 50);
        cache.insert("c", 50); // 150 > 100
        let recency = |name: &str| match name {
            "a" => Some(7),
            "b" => Some(3), // coldest
            "c" => Some(9),
            _ => None,
        };
        assert_eq!(cache.victim("c", recency).as_deref(), Some("b"));
        cache.remove("b");
        // Still over: 100 < ... no, a+c = 100 <= 100 → done.
        assert_eq!(cache.victim("c", recency), None);
    }

    #[test]
    fn protected_name_survives_even_when_oversized() {
        let mut cache = ResidentCache::new(Some(10));
        cache.insert("huge", 1000);
        // The only resident entry is the one that just loaded: nothing
        // to evict, the request must still be served.
        assert_eq!(cache.victim("huge", |_| Some(1)), None);
        cache.insert("other", 5);
        // Now the other entry goes, huge stays.
        assert_eq!(cache.victim("huge", |_| Some(1)).as_deref(), Some("other"));
    }

    #[test]
    fn unstamped_entries_count_as_oldest() {
        let mut cache = ResidentCache::new(Some(10));
        cache.insert("warm", 8);
        cache.insert("never-touched", 8);
        let recency = |name: &str| (name == "warm").then_some(99);
        assert_eq!(cache.victim("x", recency).as_deref(), Some("never-touched"));
    }

    #[test]
    fn totals_saturate() {
        let mut cache = ResidentCache::new(Some(100));
        cache.insert("a", u64::MAX);
        cache.insert("b", u64::MAX);
        assert_eq!(cache.total_bytes(), u64::MAX);
    }
}

//! The shared, lock-striped drill-down result cache with per-tenant byte
//! quotas.
//!
//! One [`SearchCache`] is shared by every session of an [`crate::Engine`]
//! (the registry's sessions all explore one immutable store). Keys are the
//! canonical 128-bit digests of `sdd_core::cachekey` — table identity,
//! sample-view content, base rule, star column, `k`, weight tag, `mw` —
//! so two sessions replaying the same drill path under the same options
//! collide exactly, and any divergence (different seed, different history)
//! is a safe miss.
//!
//! **Transparency**: the cache accelerates the BRS search only; sampling,
//! counters, and transcripts are byte-identical with the cache on or off
//! (`EngineConfig::cache_bytes = 0`, `sdd serve --cache 0` — the one off
//! switch). The cache-parity suite (`tests/cache_parity.rs`) asserts this
//! end to end, and under debug assertions every hit is re-verified
//! bit-for-bit inside the explorer.
//!
//! **Multi-tenancy**: every entry is charged to the tenant whose session
//! inserted it ([`TenantCacheView`] carries the tag through the
//! tenant-blind `ResultCache` trait). Tenants share *hits* freely —
//! results are deterministic global truths — but a tenant whose footprint
//! would exceed its byte quota evicts **only its own entries**, so one
//! tenant's burst can never push another tenant's hot entries out past
//! its own quota (the eviction-isolation test pins this). The global
//! stripe budget still backstops total memory: an overflowing stripe
//! evicts least-recently-hit entries one at a time until the new entry
//! fits — the inserting tenant's entries first, other tenants' only when
//! the inserting tenant alone still overflows the stripe (possible only
//! when quotas oversubscribe the budget). LRU is the only policy: the
//! wholesale "stripe epoch" clear it replaced lost head to head with the
//! budget at half the working set (64.5 % hits / 25 evictions vs 68.4 % /
//! 20), because a clear discards hot entries alongside cold.
//!
//! Like every striped structure here, striping affects contention only —
//! a key lands on one fixed stripe. This file is panic-free (lint rule
//! P001): lock poisoning is absorbed with `into_inner`, never unwrapped.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::registry::{TenantId, ANONYMOUS_TENANT};
use rustc_hash::FxHashMap;
use sdd_core::DrillKey;
use sdd_explorer::{CachedRules, ResultCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot of the cache's work counters. Counters never influence
/// results (the parity suites pin that); they exist for observability —
/// the serve banner, `/metrics`, benches, and capacity planning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh search.
    pub misses: u64,
    /// Results stored.
    pub inserts: u64,
    /// Entries dropped by eviction (tenant-quota or stripe-budget).
    pub evictions: u64,
    /// Estimated bytes currently held across all stripes.
    pub bytes: u64,
}

struct Entry {
    value: CachedRules,
    tenant: TenantId,
    bytes: u64,
    /// Last-hit tick of the owning stripe's clock (insert counts as a
    /// hit): the LRU victim order.
    stamp: u64,
}

struct Stripe {
    map: FxHashMap<DrillKey, Entry>,
    bytes: u64,
    /// Monotonic hit/insert tick stamping entry recency. Per-stripe (not
    /// global) so the hit path touches no shared atomic.
    clock: u64,
}

/// The lock-striped result cache. See module docs.
pub struct SearchCache {
    stripes: Vec<Mutex<Stripe>>,
    stripe_budget: u64,
    /// Per-tenant byte quotas, indexed by [`TenantId`]. A tenant beyond
    /// the table falls back to the anonymous quota (entry 0).
    tenant_quotas: Vec<u64>,
    /// Per-tenant resident bytes, same indexing.
    tenant_bytes: Vec<AtomicU64>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

/// Estimated heap footprint of one entry (key + `Arc` + rule codes +
/// scored fields + map overhead). An estimate is all eviction needs.
fn entry_bytes(value: &CachedRules) -> u64 {
    let rules: u64 = value
        .iter()
        .map(|s| 4 * s.rule.codes().len() as u64 + 3 * 8 + 16)
        .sum();
    16 + 48 + rules
}

impl SearchCache {
    /// A single-tenant cache: `stripes.max(1)` stripes sharing
    /// `budget_bytes` evenly, with the anonymous tenant entitled to the
    /// whole budget.
    pub fn new(stripes: usize, budget_bytes: usize) -> Self {
        Self::with_tenants(stripes, budget_bytes, vec![budget_bytes as u64])
    }

    /// A multi-tenant cache. `tenant_quotas[t]` is tenant `t`'s byte
    /// quota (index 0 is the anonymous tenant); an empty table gets one
    /// anonymous tenant entitled to the whole budget.
    pub fn with_tenants(stripes: usize, budget_bytes: usize, tenant_quotas: Vec<u64>) -> Self {
        let stripes = stripes.max(1);
        let tenant_quotas = if tenant_quotas.is_empty() {
            vec![budget_bytes as u64]
        } else {
            tenant_quotas
        };
        Self {
            stripe_budget: (budget_bytes as u64 / stripes as u64).max(1),
            stripes: (0..stripes)
                .map(|_| {
                    Mutex::new(Stripe {
                        map: FxHashMap::default(),
                        bytes: 0,
                        clock: 0,
                    })
                })
                .collect(),
            tenant_bytes: (0..tenant_quotas.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            tenant_quotas,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn stripe(&self, key: &DrillKey) -> &Mutex<Stripe> {
        // The key is already a uniform 128-bit digest; its low word is as
        // good a stripe selector as any hash of it.
        let idx = (key.0[0] as usize) % self.stripes.len();
        &self.stripes[idx]
    }

    fn lock(m: &Mutex<Stripe>) -> std::sync::MutexGuard<'_, Stripe> {
        // A poisoned stripe only means some thread panicked while holding
        // the lock; the map itself is still a valid cache (worst case a
        // half-done insert we overwrite). Absorb instead of propagating.
        m.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Clamps a tenant id into the quota table (unknown tenants share the
    /// anonymous slot — they cannot appear in correct use, but a clamp is
    /// cheaper and safer than a panic in this panic-free file).
    fn slot(&self, tenant: TenantId) -> usize {
        let t = tenant as usize;
        if t < self.tenant_quotas.len() {
            t
        } else {
            ANONYMOUS_TENANT as usize
        }
    }

    /// Removes `tenant`'s entries from `stripe`, returning bytes freed.
    fn shed_tenant_from(&self, stripe: &mut Stripe, tenant: usize) -> u64 {
        let doomed: Vec<DrillKey> = stripe
            .map
            .iter()
            .filter(|(_, e)| self.slot(e.tenant) == tenant)
            .map(|(k, _)| *k)
            .collect();
        let mut freed = 0u64;
        for key in &doomed {
            if let Some(e) = stripe.map.remove(key) {
                freed += e.bytes;
            }
        }
        if freed > 0 {
            stripe.bytes -= freed.min(stripe.bytes);
            self.evictions
                .fetch_add(doomed.len() as u64, Ordering::Relaxed);
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            self.tenant_bytes[tenant].fetch_sub(freed, Ordering::Relaxed);
        }
        freed
    }

    /// LRU stripe-overflow eviction: removes the coldest entries
    /// (ascending last-hit stamp) until `need` more bytes fit under the
    /// stripe budget. Two passes keep the tenant-isolation order: the
    /// inserting tenant's entries fall first, and other tenants' only when
    /// the inserting tenant alone cannot make room (quotas
    /// oversubscribing the budget). The linear victim scan per
    /// eviction is fine at stripe sizes (a stripe holds a slice of the
    /// budget, and overflow is the rare path by construction).
    fn shed_lru_from(&self, stripe: &mut Stripe, tenant: usize, need: u64) {
        for own_entries_only in [true, false] {
            while stripe.bytes + need > self.stripe_budget {
                let victim = stripe
                    .map
                    .iter()
                    .filter(|(_, e)| !own_entries_only || self.slot(e.tenant) == tenant)
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| *k);
                let Some(key) = victim else { break };
                if let Some(e) = stripe.map.remove(&key) {
                    stripe.bytes -= e.bytes.min(stripe.bytes);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.tenant_bytes[self.slot(e.tenant)].fetch_sub(e.bytes, Ordering::Relaxed);
                }
            }
            if stripe.bytes + need <= self.stripe_budget {
                return;
            }
        }
    }

    /// Tenant-quota eviction: sweeps **only `tenant`'s** entries, one
    /// stripe at a time (never holding two stripe locks, so no ordering
    /// hazard with concurrent inserts). Other tenants' entries are
    /// untouched — the eviction-isolation contract.
    fn evict_tenant(&self, tenant: usize) {
        for stripe in &self.stripes {
            let mut guard = Self::lock(stripe);
            self.shed_tenant_from(&mut guard, tenant);
        }
    }

    /// Stores the result for `key`, charging the bytes to `tenant`. See
    /// module docs for the two-level (tenant-quota, stripe-budget)
    /// eviction policy. Idempotent for present keys.
    pub fn insert_for(&self, tenant: TenantId, key: DrillKey, value: CachedRules) {
        let tenant = self.slot(tenant);
        let size = entry_bytes(&value);
        {
            let stripe = Self::lock(self.stripe(&key));
            if stripe.map.contains_key(&key) {
                // Idempotent: concurrent missers computed the same bits.
                return;
            }
        }
        // Tenant over quota: shed the tenant's own entries everywhere.
        // (Outside the target stripe's lock — evict_tenant takes each
        // stripe lock in turn.)
        if self.tenant_bytes[tenant].load(Ordering::Relaxed) + size > self.tenant_quotas[tenant] {
            self.evict_tenant(tenant);
        }
        let mut stripe = Self::lock(self.stripe(&key));
        if stripe.map.contains_key(&key) {
            return; // raced with an identical insert while unlocked
        }
        if stripe.bytes + size > self.stripe_budget && !stripe.map.is_empty() {
            // Evict coldest-first until the new entry fits (inserting
            // tenant before anyone else — see shed_lru_from).
            self.shed_lru_from(&mut stripe, tenant, size);
        }
        stripe.clock += 1;
        let stamp = stripe.clock;
        stripe.map.insert(
            key,
            Entry {
                value,
                tenant: tenant as TenantId,
                bytes: size,
                stamp,
            },
        );
        stripe.bytes += size;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        self.tenant_bytes[tenant].fetch_add(size, Ordering::Relaxed);
    }

    /// Snapshot of the work counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently charged to `tenant` (for `/metrics` and the quota
    /// tests).
    pub fn tenant_bytes(&self, tenant: TenantId) -> u64 {
        self.tenant_bytes[self.slot(tenant)].load(Ordering::Relaxed)
    }

    /// `tenant`'s configured byte quota.
    pub fn tenant_quota(&self, tenant: TenantId) -> u64 {
        self.tenant_quotas[self.slot(tenant)]
    }

    /// Number of tenants the quota table was built with.
    pub fn n_tenants(&self) -> usize {
        self.tenant_quotas.len()
    }

    /// Number of entries currently cached (snapshot across stripes).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResultCache for SearchCache {
    fn get(&self, key: &DrillKey) -> Option<CachedRules> {
        let hit = {
            let mut stripe = Self::lock(self.stripe(key));
            stripe.clock += 1;
            let tick = stripe.clock;
            stripe.map.get_mut(key).map(|e| {
                e.stamp = tick;
                Arc::clone(&e.value)
            })
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn contains(&self, key: &DrillKey) -> bool {
        // A pure peek for speculation probes: no hit/miss accounting.
        Self::lock(self.stripe(key)).map.contains_key(key)
    }

    fn insert(&self, key: DrillKey, value: CachedRules) {
        self.insert_for(ANONYMOUS_TENANT, key, value);
    }
}

/// A tenant-tagged view over the shared [`SearchCache`]: the handle an
/// authenticated session's explorer gets, so inserts flowing through the
/// tenant-blind [`ResultCache`] trait are charged to the right quota.
/// Reads are shared across tenants (hits are deterministic global truths).
pub struct TenantCacheView {
    inner: Arc<SearchCache>,
    tenant: TenantId,
}

impl TenantCacheView {
    /// A view of `cache` that charges inserts to `tenant`.
    pub fn new(inner: Arc<SearchCache>, tenant: TenantId) -> Self {
        Self { inner, tenant }
    }
}

impl ResultCache for TenantCacheView {
    fn get(&self, key: &DrillKey) -> Option<CachedRules> {
        self.inner.get(key)
    }

    fn contains(&self, key: &DrillKey) -> bool {
        self.inner.contains(key)
    }

    fn insert(&self, key: DrillKey, value: CachedRules) {
        self.inner.insert_for(self.tenant, key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::{Rule, ScoredRule};
    use std::sync::Arc;

    fn key(n: u64) -> DrillKey {
        DrillKey([n, n.wrapping_mul(0x9E37_79B9_7F4A_7C15)])
    }

    fn rules(count: f64) -> CachedRules {
        Arc::new(vec![ScoredRule {
            rule: Rule::trivial(3),
            weight: 1.0,
            count,
            mcount: count,
        }])
    }

    #[test]
    fn get_insert_roundtrip_with_counters() {
        let c = SearchCache::new(4, 1 << 20);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), rules(7.0));
        let hit = c.get(&key(1)).expect("inserted");
        assert_eq!(hit[0].count.to_bits(), 7.0f64.to_bits());
        let counters = c.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.inserts),
            (1, 1, 1)
        );
        assert!(counters.bytes > 0);
    }

    #[test]
    fn contains_is_a_pure_peek() {
        let c = SearchCache::new(2, 1 << 20);
        assert!(!c.contains(&key(9)));
        c.insert(key(9), rules(1.0));
        assert!(c.contains(&key(9)));
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses), (0, 0));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let c = SearchCache::new(1, 1 << 20);
        c.insert(key(3), rules(1.0));
        let bytes = c.counters().bytes;
        c.insert(key(3), rules(2.0));
        assert_eq!(c.counters().inserts, 1);
        assert_eq!(c.counters().bytes, bytes);
        // First write wins (both are bit-identical in real use).
        assert_eq!(c.get(&key(3)).expect("present")[0].count, 1.0);
    }

    #[test]
    fn budget_smaller_than_one_entry_evicts_and_keeps_serving() {
        // Tiny budget: every entry overflows.
        let c = SearchCache::new(1, 64);
        c.insert(key(1), rules(1.0));
        c.insert(key(2), rules(2.0));
        assert!(c.counters().evictions >= 1, "{:?}", c.counters());
        // The newest insert survives its own eviction pass.
        assert!(c.get(&key(2)).is_some());
        assert!(c.counters().bytes > 0);
    }

    #[test]
    fn concurrent_use_is_safe() {
        let c = Arc::new(SearchCache::new(8, 1 << 20));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        c.insert(key(i % 32), rules((t * 1000 + i) as f64));
                        let _ = c.get(&key(i % 32));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let counters = c.counters();
        assert_eq!(counters.hits + counters.misses, 1600);
        assert!(c.len() <= 32);
    }

    /// The eviction-isolation contract: tenant 1's burst past its own
    /// quota evicts only tenant 1's entries; tenant 2's hot entries
    /// survive untouched, and tenant 1 never settles above its quota.
    #[test]
    fn tenant_burst_cannot_evict_another_tenants_entries() {
        // One stripe so every key contends on the same budget; global
        // budget far above both quotas so only tenant quotas can trigger.
        let quota = 600u64;
        let c = SearchCache::with_tenants(1, 1 << 20, vec![1 << 20, quota, quota]);

        // Tenant 2 populates comfortably inside its quota.
        let t2_keys: Vec<DrillKey> = (100..104).map(key).collect();
        for k in &t2_keys {
            c.insert_for(2, *k, rules(2.0));
        }
        let t2_bytes = c.tenant_bytes(2);
        assert!(t2_bytes > 0 && t2_bytes <= quota);

        // Tenant 1 bursts way past its own quota.
        for i in 0..200u64 {
            c.insert_for(1, key(i), rules(1.0));
        }

        // Tenant 2's entries are all still present and still accounted.
        for k in &t2_keys {
            assert!(c.contains(k), "tenant 2 entry evicted by tenant 1's burst");
        }
        assert_eq!(c.tenant_bytes(2), t2_bytes);
        // Tenant 1 was evicted down: it holds at most quota + one entry.
        assert!(
            c.tenant_bytes(1) <= quota + 200,
            "tenant 1 resident {} far above quota {quota}",
            c.tenant_bytes(1)
        );
        assert!(c.counters().evictions > 0);
    }

    /// LRU overflow evicts the coldest entry, not the whole stripe: a
    /// recently-hit entry outlives an older, colder sibling.
    #[test]
    fn lru_overflow_keeps_the_recently_hit_entry() {
        // One stripe, budget that holds exactly two of these entries.
        let per_entry = {
            let probe = SearchCache::new(1, 1 << 20);
            probe.insert(key(0), rules(0.0));
            probe.counters().bytes
        };
        // Quota far above the budget so only the stripe path can trigger
        // (with `new`, quota == budget and the tenant sweep fires first).
        let c = SearchCache::with_tenants(1, (2 * per_entry) as usize, vec![1 << 20]);
        c.insert(key(1), rules(1.0));
        c.insert(key(2), rules(2.0));
        // Touch the older entry: it is now the hotter of the two.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), rules(3.0));
        assert!(c.contains(&key(1)), "recently-hit entry must survive");
        assert!(!c.contains(&key(2)), "coldest entry must fall");
        assert!(c.contains(&key(3)), "the new entry must land");
        assert_eq!(c.counters().evictions, 1);
        assert!(c.counters().bytes <= 2 * per_entry);
    }

    /// LRU keeps the eviction-isolation contract: a flooding tenant's
    /// stripe overflow evicts its own coldest entries, never another
    /// tenant's — even when the other tenant's entry is the coldest.
    #[test]
    fn lru_overflow_spares_other_tenants_entries() {
        let c = SearchCache::with_tenants(1, 500, vec![1 << 20, 1 << 20, 1 << 20]);
        c.insert_for(2, key(100), rules(2.0));
        let t2_bytes = c.tenant_bytes(2);
        // Tenant 1 floods well past the stripe budget; every overflow must
        // pick a tenant-1 victim even though tenant 2's entry is coldest.
        for i in 0..40u64 {
            c.insert_for(1, key(i), rules(1.0));
        }
        assert!(
            c.contains(&key(100)),
            "tenant 2's cold entry fell to tenant 1's LRU overflow"
        );
        assert_eq!(c.tenant_bytes(2), t2_bytes);
        assert!(c.counters().evictions > 0);
        assert_eq!(
            c.counters().bytes,
            c.tenant_bytes(1) + c.tenant_bytes(2),
            "global bytes must equal the sum of tenant bytes"
        );
    }

    #[test]
    fn tenant_view_charges_the_right_tenant() {
        let c = Arc::new(SearchCache::with_tenants(
            2,
            1 << 20,
            vec![1 << 20, 1 << 20],
        ));
        let view = TenantCacheView::new(Arc::clone(&c), 1);
        view.insert(key(5), rules(5.0));
        assert!(c.tenant_bytes(1) > 0);
        assert_eq!(c.tenant_bytes(0), 0);
        // Hits are shared: the untagged cache sees tenant 1's entry.
        assert!(c.get(&key(5)).is_some());
        // Unknown tenants clamp to the anonymous slot instead of panicking.
        c.insert_for(999, key(6), rules(6.0));
        assert!(c.tenant_bytes(0) > 0);
    }
}

//! A lock-striped session registry with idle tracking and tenant tags.
//!
//! Sessions are keyed by client-chosen names. The map is split into `N`
//! stripes, each behind its own mutex, so concurrent requests for sessions
//! on different stripes never contend on registry locks; the values are
//! `Arc<Mutex<T>>` so per-session work holds only its own session lock,
//! never a stripe lock.
//!
//! Striping affects contention only — never results: every lookup for a key
//! lands on one fixed stripe, and per-session ordering is enforced by the
//! session's own mutex.
//!
//! Each entry additionally carries:
//!
//! * a **touch stamp** (milliseconds since the registry was created),
//!   refreshed by every [`Registry::get`], which the server's background
//!   sweep uses to evict sessions idle beyond a TTL — the lifecycle story
//!   for HTTP clients, whose sessions are not connection-scoped;
//! * a **tenant tag** (from the auth layer), so every removal path — an
//!   explicit `close`, connection-scoped reaping, the idle sweep — can
//!   release the owning tenant's session quota.
//!
//! Neither field ever influences a response byte: stamps and tags gate
//! *when* a session dies, not what it answers while alive.

use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The tenant tag attached to each session (index into the auth layer's
/// tenant table; `0` is the anonymous tenant).
pub type TenantId = u16;

/// The anonymous tenant: unauthenticated transports (the lab line-JSON
/// TCP path, in-process callers) and servers running without a token file.
pub const ANONYMOUS_TENANT: TenantId = 0;

struct Entry<T> {
    value: Arc<Mutex<T>>,
    /// Milliseconds since registry creation at the last touch.
    touched: AtomicU64,
    tenant: TenantId,
}

/// The lock-striped map. See module docs.
pub struct Registry<T> {
    stripes: Vec<Mutex<FxHashMap<String, Entry<T>>>>,
    epoch: Instant,
}

impl<T> Registry<T> {
    /// Creates a registry with `stripes.max(1)` stripes.
    #[allow(
        clippy::disallowed_methods,
        reason = "idle ages are wall-clock time since creation"
    )]
    pub fn new(stripes: usize) -> Self {
        Self {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            epoch: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn stripe(&self, key: &str) -> &Mutex<FxHashMap<String, Entry<T>>> {
        // FxHash of the key bytes; stable within a process, which is all
        // stripe selection needs.
        use std::hash::{BuildHasher, Hasher};
        let mut h = rustc_hash::FxBuildHasher::default().build_hasher();
        h.write(key.as_bytes());
        let idx = (h.finish() as usize) % self.stripes.len();
        &self.stripes[idx]
    }

    /// Inserts a new session owned by the anonymous tenant. Errors if the
    /// key is already registered.
    pub fn insert(&self, key: &str, value: T) -> Result<(), RegistryError> {
        self.insert_tagged(key, value, ANONYMOUS_TENANT)
    }

    /// Inserts a new session tagged with its owning tenant. Errors if the
    /// key is already registered.
    pub fn insert_tagged(
        &self,
        key: &str,
        value: T,
        tenant: TenantId,
    ) -> Result<(), RegistryError> {
        let now = self.now_ms();
        let mut map = self.stripe(key).lock().expect("stripe poisoned");
        if map.contains_key(key) {
            return Err(RegistryError::Exists(key.to_owned()));
        }
        map.insert(
            key.to_owned(),
            Entry {
                value: Arc::new(Mutex::new(value)),
                touched: AtomicU64::new(now),
                tenant,
            },
        );
        Ok(())
    }

    /// The session handle for `key`, if registered, refreshing its idle
    /// stamp. The stripe lock is released before returning; callers lock
    /// the session itself.
    pub fn get(&self, key: &str) -> Option<Arc<Mutex<T>>> {
        let now = self.now_ms();
        self.stripe(key)
            .lock()
            .expect("stripe poisoned")
            .get(key)
            .map(|e| {
                e.touched.store(now, Ordering::Relaxed);
                Arc::clone(&e.value)
            })
    }

    /// The owning tenant of `key`, if registered.
    pub fn tenant_of(&self, key: &str) -> Option<TenantId> {
        self.stripe(key)
            .lock()
            .expect("stripe poisoned")
            .get(key)
            .map(|e| e.tenant)
    }

    /// Removes and returns the session handle for `key`.
    pub fn remove(&self, key: &str) -> Option<Arc<Mutex<T>>> {
        self.remove_tagged(key).map(|(v, _)| v)
    }

    /// Removes the session for `key`, returning the handle and its tenant
    /// tag (so the caller can release the tenant's quota).
    pub fn remove_tagged(&self, key: &str) -> Option<(Arc<Mutex<T>>, TenantId)> {
        self.stripe(key)
            .lock()
            .expect("stripe poisoned")
            .remove(key)
            .map(|e| (e.value, e.tenant))
    }

    /// Removes every session whose idle time exceeds `ttl_ms`, returning
    /// the reaped `(name, tenant)` pairs. Stripes are swept one at a time
    /// (never more than one stripe lock held), so the sweep cannot
    /// deadlock with concurrent requests; a session touched between the
    /// stamp read and the removal is simply kept until the next sweep.
    pub fn sweep_idle(&self, ttl_ms: u64) -> Vec<(String, TenantId)> {
        let now = self.now_ms();
        let mut reaped = Vec::new();
        for stripe in &self.stripes {
            let mut map = stripe.lock().expect("stripe poisoned");
            let expired: Vec<String> = map
                .iter()
                .filter(|(_, e)| now.saturating_sub(e.touched.load(Ordering::Relaxed)) > ttl_ms)
                .map(|(k, _)| k.clone())
                .collect();
            for key in expired {
                if let Some(e) = map.remove(&key) {
                    reaped.push((key, e.tenant));
                }
            }
        }
        reaped
    }

    /// Number of registered sessions (sums stripe sizes; a snapshot, not a
    /// linearizable count).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").len())
            .sum()
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Registry failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The session name is already taken.
    Exists(String),
    /// The session name is not registered.
    NotFound(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Exists(k) => write!(f, "session {k:?} already exists"),
            RegistryError::NotFound(k) => write!(f, "no session named {k:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_cycle() {
        let r: Registry<u32> = Registry::new(8);
        assert!(r.is_empty());
        r.insert("a", 1).unwrap();
        r.insert("b", 2).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(*r.get("a").unwrap().lock().unwrap(), 1);
        assert!(r.get("missing").is_none());
        assert_eq!(r.insert("a", 9), Err(RegistryError::Exists("a".to_owned())));
        let removed = r.remove("a").unwrap();
        assert_eq!(*removed.lock().unwrap(), 1);
        assert!(r.get("a").is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn concurrent_inserts_land_exactly_once() {
        let r: Arc<Registry<usize>> = Arc::new(Registry::new(4));
        let handles: Vec<_> = (0..8)
            .map(|tid| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut wins = 0;
                    for i in 0..100 {
                        if r.insert(&format!("s{i}"), tid).is_ok() {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "every key must be won by exactly one thread");
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn single_stripe_still_works() {
        let r: Registry<&'static str> = Registry::new(0); // clamped to 1
        r.insert("x", "v").unwrap();
        assert_eq!(*r.get("x").unwrap().lock().unwrap(), "v");
    }

    #[test]
    fn tenant_tags_survive_the_lifecycle() {
        let r: Registry<u32> = Registry::new(4);
        r.insert_tagged("t1-a", 1, 1).unwrap();
        r.insert("anon", 2).unwrap();
        assert_eq!(r.tenant_of("t1-a"), Some(1));
        assert_eq!(r.tenant_of("anon"), Some(ANONYMOUS_TENANT));
        assert_eq!(r.tenant_of("missing"), None);
        let (_, tenant) = r.remove_tagged("t1-a").unwrap();
        assert_eq!(tenant, 1);
    }

    #[test]
    fn sweep_reaps_only_idle_entries() {
        let r: Registry<u32> = Registry::new(2);
        r.insert_tagged("old", 1, 3).unwrap();
        r.insert("fresh", 2).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Touch "fresh" after the sleep; "old" stays stale.
        let _ = r.get("fresh");
        let mut reaped = r.sweep_idle(20);
        reaped.sort();
        assert_eq!(reaped, vec![("old".to_owned(), 3)]);
        assert_eq!(r.len(), 1);
        assert!(r.get("fresh").is_some());
        // A zero TTL reaps everything not touched in the same instant.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(r.sweep_idle(0), vec![("fresh".to_owned(), 0)]);
        assert!(r.is_empty());
    }
}

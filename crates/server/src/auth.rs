//! Bearer-token authentication and per-tenant quotas for the HTTP
//! front-end.
//!
//! A token file (one entry per line) maps secrets to tenants:
//!
//! ```text
//! # token      tenant     [max_sessions]  [cache_mib]  [ingest]
//! s3cr3t-alpha alpha      64              16           ingest
//! s3cr3t-beta  beta
//! ```
//!
//! Fields are whitespace-separated; `#` starts a comment. Unset quotas
//! fall back to [`TenantQuota::default`]. Tenant ids are assigned in file
//! order starting at 1 — id 0 is always the **anonymous tenant**, used by
//! unauthenticated transports (the lab line-JSON TCP path, in-process
//! callers) and by every request when no token file is configured.
//!
//! Authentication is a pure lookup (token → tenant id); quota
//! *enforcement* lives where the resources live: session quotas in
//! [`crate::Engine::handle_line_as`], cache-byte quotas in
//! [`crate::SearchCache`]. Nothing here ever influences a response body —
//! auth gates *whether* the engine is asked, never what it answers.
//!
//! This file is panic-free outside tests (lint rule P001): the registry
//! is consulted on every request, and a panic here would take the
//! front-end down.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::registry::{TenantId, ANONYMOUS_TENANT};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resource limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Concurrently live sessions this tenant may hold.
    pub max_sessions: usize,
    /// Result-cache bytes this tenant's inserts may occupy.
    pub cache_bytes: u64,
    /// May this tenant append rows to a live table (`sdd serve --tail`)?
    /// Appends mutate shared state every session sees, so the capability
    /// is opt-in per token (the literal field `ingest` in the token file);
    /// the anonymous tenant of an open registry has it — no token file
    /// means no auth boundary to enforce.
    pub ingest: bool,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_sessions: 256,
            cache_bytes: 16 << 20,
            ingest: false,
        }
    }
}

/// One tenant: identity plus live-resource gauges.
#[derive(Debug)]
pub struct Tenant {
    /// Display name (from the token file; `"anonymous"` for id 0).
    pub name: String,
    /// Configured limits.
    pub quota: TenantQuota,
    /// Live session gauge, maintained by the engine on every open /
    /// close / reap / sweep.
    sessions: AtomicUsize,
}

impl Tenant {
    fn new(name: String, quota: TenantQuota) -> Self {
        Self {
            name,
            quota,
            sessions: AtomicUsize::new(0),
        }
    }

    /// Sessions currently alive for this tenant.
    pub fn live_sessions(&self) -> usize {
        self.sessions.load(Ordering::Relaxed)
    }

    /// Tries to claim one session slot; `false` when the quota is full.
    /// Compare-and-swap so racing opens cannot overshoot the quota.
    pub fn try_claim_session(&self) -> bool {
        let mut live = self.sessions.load(Ordering::Relaxed);
        loop {
            if live >= self.quota.max_sessions {
                return false;
            }
            match self.sessions.compare_exchange_weak(
                live,
                live + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => live = actual,
            }
        }
    }

    /// Releases one session slot (close, connection reap, idle sweep).
    /// Saturating: a spurious release cannot wrap the gauge.
    pub fn release_session(&self) {
        let mut live = self.sessions.load(Ordering::Relaxed);
        while live > 0 {
            match self.sessions.compare_exchange_weak(
                live,
                live - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => live = actual,
            }
        }
    }
}

/// The token → tenant directory. Built once at startup, read-only after.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: Vec<Tenant>,
    by_token: FxHashMap<String, TenantId>,
    /// True when a token file was configured: bearer auth is then
    /// required on the HTTP front-end.
    required: bool,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        Self::open()
    }
}

impl TenantRegistry {
    /// An open registry: no tokens, every request runs as the anonymous
    /// tenant with an effectively unlimited quota (the engine-wide
    /// `max_sessions` cap still applies).
    pub fn open() -> Self {
        Self {
            tenants: vec![Tenant::new(
                "anonymous".to_owned(),
                TenantQuota {
                    max_sessions: usize::MAX,
                    cache_bytes: u64::MAX,
                    ingest: true,
                },
            )],
            by_token: FxHashMap::default(),
            required: false,
        }
    }

    /// Parses a token file's contents (see module docs for the format).
    /// Errors carry the offending line number.
    pub fn from_token_file(contents: &str) -> Result<Self, String> {
        let mut reg = Self::open();
        reg.required = true;
        for (lineno, raw) in contents.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (Some(token), Some(name)) = (fields.next(), fields.next()) else {
                return Err(format!(
                    "token file line {}: expected `<token> <tenant> [max_sessions] [cache_mib] [ingest]`",
                    lineno + 1
                ));
            };
            let mut quota = TenantQuota::default();
            if let Some(ms) = fields.next() {
                quota.max_sessions = ms.parse().map_err(|_| {
                    format!("token file line {}: bad max_sessions {ms:?}", lineno + 1)
                })?;
            }
            if let Some(mib) = fields.next() {
                let mib: u64 = mib.parse().map_err(|_| {
                    format!("token file line {}: bad cache_mib {mib:?}", lineno + 1)
                })?;
                quota.cache_bytes = mib << 20;
            }
            match fields.next() {
                None => {}
                Some("ingest") => quota.ingest = true,
                Some(other) => {
                    return Err(format!(
                        "token file line {}: expected `ingest` or end of line, got {other:?}",
                        lineno + 1
                    ));
                }
            }
            if fields.next().is_some() {
                return Err(format!(
                    "token file line {}: trailing fields after ingest",
                    lineno + 1
                ));
            }
            if reg.by_token.contains_key(token) {
                return Err(format!("token file line {}: duplicate token", lineno + 1));
            }
            if reg.tenants.len() > TenantId::MAX as usize {
                return Err("token file: too many tenants".to_owned());
            }
            let id = reg.tenants.len() as TenantId;
            // Tenant *names* may repeat (token rotation: old + new token
            // both live); each line still gets its own id and quota.
            reg.tenants.push(Tenant::new(name.to_owned(), quota));
            reg.by_token.insert(token.to_owned(), id);
        }
        Ok(reg)
    }

    /// Reads and parses a token file from disk.
    pub fn load_token_file(path: &std::path::Path) -> Result<Self, String> {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read token file {path:?}: {e}"))?;
        Self::from_token_file(&contents)
    }

    /// True when bearer auth is required (a token file was configured).
    pub fn auth_required(&self) -> bool {
        self.required
    }

    /// Resolves a bearer token to a tenant id; `None` = unauthorized.
    pub fn authenticate(&self, token: &str) -> Option<TenantId> {
        self.by_token.get(token).copied()
    }

    /// The tenant for `id`; unknown ids clamp to the anonymous tenant
    /// (cannot occur in correct use, and this file must not panic).
    pub fn tenant(&self, id: TenantId) -> &Tenant {
        self.tenants
            .get(id as usize)
            .unwrap_or(&self.tenants[ANONYMOUS_TENANT as usize])
    }

    /// All tenants, indexed by id (0 = anonymous).
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The cache-byte quota table, indexed by tenant id — the shape
    /// [`crate::SearchCache::with_tenants`] takes. The anonymous tenant's
    /// (unlimited) entry is clamped to `whole_budget`.
    pub fn cache_quotas(&self, whole_budget: u64) -> Vec<u64> {
        self.tenants
            .iter()
            .map(|t| t.quota.cache_bytes.min(whole_budget))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "\
# comment line
tok-alpha alpha 2 1
tok-beta  beta          # defaults
tok-beta2 beta 8 4      # second token for the same tenant name
";

    #[test]
    fn parses_tokens_quotas_and_comments() {
        let reg = TenantRegistry::from_token_file(FILE).unwrap();
        assert!(reg.auth_required());
        assert_eq!(reg.tenants().len(), 4); // anonymous + 3 lines
        let alpha = reg.authenticate("tok-alpha").unwrap();
        assert_eq!(reg.tenant(alpha).name, "alpha");
        assert_eq!(reg.tenant(alpha).quota.max_sessions, 2);
        assert_eq!(reg.tenant(alpha).quota.cache_bytes, 1 << 20);
        let beta = reg.authenticate("tok-beta").unwrap();
        assert_eq!(reg.tenant(beta).quota, TenantQuota::default());
        assert!(reg.authenticate("nope").is_none());
        assert!(reg.authenticate("").is_none());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(TenantRegistry::from_token_file("only-token").is_err());
        assert!(TenantRegistry::from_token_file("t a bad-number").is_err());
        assert!(TenantRegistry::from_token_file("t a 1 bad-number").is_err());
        assert!(TenantRegistry::from_token_file("t a 1 2 extra").is_err());
        assert!(TenantRegistry::from_token_file("t a 1 2 ingest extra").is_err());
        assert!(TenantRegistry::from_token_file("dup a\ndup b").is_err());
    }

    #[test]
    fn ingest_capability_is_opt_in_per_token() {
        let reg =
            TenantRegistry::from_token_file("tok-w writer 4 2 ingest\ntok-r reader 4 2").unwrap();
        let writer = reg.authenticate("tok-w").unwrap();
        let reader = reg.authenticate("tok-r").unwrap();
        assert!(reg.tenant(writer).quota.ingest);
        assert!(!reg.tenant(reader).quota.ingest);
        // With no token file there is no auth boundary: anonymous may ingest.
        assert!(TenantRegistry::open().tenant(ANONYMOUS_TENANT).quota.ingest);
        // With a token file, the anonymous tenant (unauthenticated TCP
        // path) keeps the open-registry quota — auth gating of appends is
        // the HTTP front-end's job; see the engine's tail config.
    }

    #[test]
    fn open_registry_needs_no_auth() {
        let reg = TenantRegistry::open();
        assert!(!reg.auth_required());
        assert_eq!(reg.tenant(ANONYMOUS_TENANT).name, "anonymous");
        assert_eq!(reg.tenant(ANONYMOUS_TENANT).quota.max_sessions, usize::MAX);
        // Unknown ids clamp to anonymous instead of panicking.
        assert_eq!(reg.tenant(999).name, "anonymous");
    }

    #[test]
    fn session_claims_stop_at_the_quota_under_contention() {
        let reg = std::sync::Arc::new(TenantRegistry::from_token_file("tok alpha 10 1").unwrap());
        let id = reg.authenticate("tok").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    (0..5)
                        .filter(|_| reg.tenant(id).try_claim_session())
                        .count()
                })
            })
            .collect();
        let claimed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(claimed, 10, "exactly the quota must be claimable");
        assert_eq!(reg.tenant(id).live_sessions(), 10);
        assert!(!reg.tenant(id).try_claim_session());
        reg.tenant(id).release_session();
        assert!(reg.tenant(id).try_claim_session());
        // Saturating release: draining far past zero never wraps.
        for _ in 0..100 {
            reg.tenant(id).release_session();
        }
        assert_eq!(reg.tenant(id).live_sessions(), 0);
    }

    #[test]
    fn cache_quota_table_clamps_to_the_budget() {
        let reg = TenantRegistry::from_token_file("tok alpha 2 64").unwrap();
        let quotas = reg.cache_quotas(8 << 20);
        assert_eq!(quotas[0], 8 << 20); // anonymous clamped to the budget
        assert_eq!(quotas[1], 8 << 20); // 64 MiB request clamped too
        let small = TenantRegistry::from_token_file("tok alpha 2 1").unwrap();
        assert_eq!(small.cache_quotas(8 << 20)[1], 1 << 20);
    }
}

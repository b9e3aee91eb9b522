//! Live-table workload-replay parity harness.
//!
//! The live serving mode (append-only ingest, epoch-bumping snapshots,
//! incremental sample maintenance) must be **invisible** in every response
//! byte: a drill-down executed against the live store at epoch `E` answers
//! exactly what the same drill-down answers against a frozen table
//! pre-grown to epoch `E`'s rows. Appends may only change *what data* a
//! session sees (at its next operation), never how a given epoch's data is
//! summarized.
//!
//! Three layers of assertion:
//!
//! 1. **Per-cell sweep** over segment sizes × resident or spilled sealed
//!    segments × cache on/off: seeded scripts interleaving appends with drill-down visits
//!    must produce, at every epoch, transcripts byte-identical to the same
//!    visit replayed against a frozen monolithic table holding exactly
//!    that epoch's rows (cache off, inline prefetch — the canonical
//!    reference).
//! 2. **No stale serving across epochs, at runtime**: the very same
//!    request bytes are replayed after every append; each replay must
//!    match *its own* epoch's frozen reference and differ from the
//!    previous epoch's transcript (the data grew — an estimate that did
//!    not move would mean a cached result leaked across the epoch
//!    boundary). These tests also run with debug assertions, so every
//!    cache hit inside the explorer is re-verified bit-for-bit against a
//!    fresh computation (`debug_assert!` in `Explorer::search`).
//! 3. **Concurrent clients**: same-seed sessions hammering one live
//!    server concurrently between appends must each match the frozen
//!    single-threaded reference byte for byte.
//!
//! The deferred exact-count refresh is the one deliberate asymmetry: a
//! live store answers `refresh` immediately (current estimates) and hands
//! the scan to the background worker, while a frozen store refreshes
//! synchronously. The *next* `rules` is therefore the comparable artifact
//! — both legs must show identical exact counts there — and the harness
//! asserts the live refresh reply itself is a well-formed `rules` payload.

use smart_drilldown::server::{
    Client, Engine, EngineConfig, Request, Server, ServerConfig, TailConfig,
};
use smart_drilldown::table::{LiveTable, LiveTableConfig, Schema, TableBuilder, TableStore};
use std::sync::Arc;

/// Rows appended per epoch.
const BATCH: usize = 400;
/// Appends interleaved into every script.
const EPOCHS: usize = 3;
/// Sampling seeds visiting at each epoch (a repeated seed maximizes
/// same-epoch cache sharing; a distinct one guards against collisions).
const SEEDS: [u64; 3] = [7, 7, 1234];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic synthetic row `i` of the workload: skewed enough that
/// drill-downs find structure, varied enough that every epoch moves the
/// estimates.
fn row(i: usize) -> Vec<String> {
    let h = splitmix(i as u64);
    vec![
        format!("s{}", h % 6),
        format!("p{}", (h >> 8) % 11),
        format!("r{}", (h >> 16) % 4),
    ]
}

fn batch(epoch: usize) -> Vec<Vec<String>> {
    ((epoch - 1) * BATCH..epoch * BATCH).map(row).collect()
}

fn schema() -> Schema {
    Schema::new(["Store", "Product", "Region"]).expect("schema")
}

/// The frozen reference at `epoch`: a monolithic table holding exactly the
/// rows visible at that epoch, served cache-off.
fn frozen_reference(epoch: usize) -> Engine {
    let mut b = TableBuilder::new(schema());
    for i in 0..epoch * BATCH {
        b.push_row(&row(i)).expect("row arity");
    }
    let table = Arc::new(b.build());
    Engine::with_store(
        TableStore::Whole(table),
        EngineConfig {
            cache_bytes: 0,
            ..EngineConfig::default()
        },
    )
}

/// One analyst visit: open, a fixed mix of rule and star expansions, rule
/// listings, an exact-count refresh, the post-refresh listing, counters,
/// close. Returns the raw request lines — reusing a session name across
/// epochs yields byte-identical request sequences, the sharpest possible
/// staleness probe.
fn visit_lines(session: &str, seed: u64) -> Vec<String> {
    vec![
        format!(
            r#"{{"op":"open","session":"{session}","seed":"{seed}","k":3,"mw":3.0,"weight":"size","capacity":400,"min_ss":40}}"#
        ),
        format!(r#"{{"op":"expand","session":"{session}","path":[]}}"#),
        format!(r#"{{"op":"expand","session":"{session}","path":[0]}}"#),
        format!(r#"{{"op":"star","session":"{session}","path":[],"column":"Region"}}"#),
        format!(r#"{{"op":"expand","session":"{session}","path":[1]}}"#),
        format!(r#"{{"op":"rules","session":"{session}"}}"#),
        format!(r#"{{"op":"refresh","session":"{session}"}}"#),
        format!(r#"{{"op":"rules","session":"{session}"}}"#),
        format!(r#"{{"op":"stats","session":"{session}"}}"#),
        format!(r#"{{"op":"close","session":"{session}"}}"#),
    ]
}

/// Index of the `refresh` line in a visit — the one response excluded from
/// byte comparison (deferred on live stores, synchronous on frozen ones).
const REFRESH_OP: usize = 6;

/// Replays one visit through an engine, playing the background worker
/// whenever the engine asks for it, and returns the response lines.
fn replay(engine: &Engine, session: &str, seed: u64) -> Vec<String> {
    visit_lines(session, seed)
        .iter()
        .map(|line| {
            let (resp, hint) = engine.handle_line(line);
            if let Some(s) = hint {
                engine.run_pending_prefetch(&s);
            }
            resp
        })
        .collect()
}

/// Asserts a live-epoch transcript matches the frozen reference transcript
/// everywhere except the deferred-refresh reply, which must still be a
/// well-formed `rules` payload.
fn assert_visit_parity(live: &[String], frozen: &[String], cell: &str) {
    assert_eq!(live.len(), frozen.len(), "{cell}: transcript lengths");
    for (i, (l, f)) in live.iter().zip(frozen).enumerate() {
        if i == REFRESH_OP {
            assert!(
                l.contains(r#""ok":true"#) && l.contains(r#""op":"rules""#),
                "{cell}: live deferred refresh must answer a rules payload: {l}"
            );
            continue;
        }
        assert_eq!(l, f, "{cell}: op {i} diverged");
    }
}

/// The live-store configurations swept: segment sizes around and far from
/// the batch size, with sealed segments resident or spilled (the tail is
/// resident either way; 4 096 rows never seal here, so it is resident only).
fn live_configs() -> Vec<LiveTableConfig> {
    let dir = std::env::temp_dir();
    vec![
        LiveTableConfig::in_memory(7),
        LiveTableConfig::in_memory(64),
        LiveTableConfig::in_memory(4096),
        LiveTableConfig::spilling(7, dir.clone()),
        LiveTableConfig::spilling(64, dir),
    ]
}

fn live_engine(config: &LiveTableConfig, cache_bytes: usize) -> Engine {
    let live = LiveTable::new(schema(), vec![], config).expect("live table");
    Engine::with_store(
        TableStore::from(Arc::new(live)),
        EngineConfig {
            tail: Some(TailConfig::default()),
            cache_bytes,
            ..EngineConfig::default()
        },
    )
}

fn append(engine: &Engine, epoch: usize) {
    let line = Request::Append {
        rows: batch(epoch),
        measures: vec![],
    }
    .to_json()
    .to_string();
    let (resp, _) = engine.handle_line(&line);
    assert!(resp.contains(r#""ok":true"#), "append failed: {resp}");
    assert_eq!(
        engine.live_info(),
        Some((epoch as u64, epoch * BATCH)),
        "epoch bookkeeping after append {epoch}"
    );
}

#[test]
fn live_visits_match_frozen_pregrown_tables_at_every_epoch() {
    // Frozen references are epoch-indexed and shared across the grid.
    // Session names depend only on the seed index so live request bytes
    // match reference request bytes exactly (the `open` reply echoes the
    // name); a closed session's name is legitimately reusable.
    let reference: Vec<Vec<Vec<String>>> = (1..=EPOCHS)
        .map(|epoch| {
            let frozen = frozen_reference(epoch);
            SEEDS
                .iter()
                .enumerate()
                .map(|(i, &seed)| replay(&frozen, &format!("visit-{i}"), seed))
                .collect()
        })
        .collect();

    for config in &live_configs() {
        for cache_bytes in [0usize, 64 << 20] {
            let cell = format!(
                "segment={} spilled={} cache={}",
                config.rows_per_segment,
                config.spill_dir.is_some(),
                cache_bytes
            );
            let engine = live_engine(config, cache_bytes);
            let mut previous_epoch: Option<Vec<String>> = None;
            for epoch in 1..=EPOCHS {
                append(&engine, epoch);
                let mut first_of_epoch = None;
                for (i, &seed) in SEEDS.iter().enumerate() {
                    let live = replay(&engine, &format!("visit-{i}"), seed);
                    assert_visit_parity(
                        &live,
                        &reference[epoch - 1][i],
                        &format!("{cell} epoch={epoch} visit={i}"),
                    );
                    if i == 0 {
                        first_of_epoch = Some(live);
                    }
                }
                // Runtime staleness probe: this epoch's first visit and
                // the previous epoch's were byte-identical *requests*;
                // their responses must differ — the data grew, so
                // identical bytes would mean a cached result crossed the
                // epoch boundary.
                let first = first_of_epoch.expect("seed-7 visit ran");
                if let Some(prev) = previous_epoch.replace(first.clone()) {
                    assert_ne!(
                        prev, first,
                        "{cell}: epoch {epoch} served the previous epoch's bytes"
                    );
                }
            }
        }
    }
}

#[test]
fn same_epoch_visits_share_the_cache_and_appends_never_leak_across() {
    // The cache-effectiveness counterpart of the parity sweep: within one
    // epoch the repeated seed must actually hit the shared cache, and an
    // identical visit after an append must match the *new* epoch's frozen
    // reference — not the transcript the old entries would have produced.
    let engine = live_engine(&LiveTableConfig::in_memory(64), 64 << 20);
    append(&engine, 1);
    let first = replay(&engine, "probe", 7);
    let after_first = engine.cache_counters().map(|c| c.hits);
    let twin = replay(&engine, "probe", 7);
    assert_eq!(first, twin, "same epoch, same seed, same bytes");
    if let (Some(a), Some(b)) = (after_first, engine.cache_counters().map(|c| c.hits)) {
        assert!(b > a, "same-epoch same-seed visit never hit the cache");
    }

    append(&engine, 2);
    let fresh = replay(&engine, "probe", 7);
    let reference = replay(&frozen_reference(2), "probe", 7);
    assert_visit_parity(&fresh, &reference, "post-append epoch=2");
    assert_ne!(first, fresh, "the append must move the estimates");
}

#[test]
fn concurrent_live_clients_match_the_frozen_reference_between_appends() {
    const N_CLIENTS: usize = 3;
    let live = LiveTable::new(schema(), vec![], &LiveTableConfig::in_memory(64)).expect("live");
    let server = Server::bind_store(
        TableStore::from(Arc::new(live)),
        ServerConfig {
            engine: EngineConfig {
                tail: Some(TailConfig::default()),
                ..EngineConfig::default()
            },
            threads: N_CLIENTS + 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    for epoch in 1..=EPOCHS {
        // Appends land between waves; each wave drills one fixed epoch
        // concurrently (same seed in every client — maximal cache-sharing
        // pressure on the live store).
        let mut writer = Client::connect(addr).expect("connect writer");
        let resp = writer
            .call_line(
                &Request::Append {
                    rows: batch(epoch),
                    measures: vec![],
                }
                .to_json()
                .to_string(),
            )
            .expect("append");
        assert!(resp.contains(r#""ok":true"#), "append failed: {resp}");

        let handles: Vec<_> = (0..N_CLIENTS)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    visit_lines(&format!("wave-{i}"), 7)
                        .iter()
                        .map(|line| client.call_line(line).expect("request"))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        let frozen = frozen_reference(epoch);
        for (i, handle) in handles.into_iter().enumerate() {
            let transcript = handle.join().expect("client thread");
            let reference = replay(&frozen, &format!("wave-{i}"), 7);
            assert_visit_parity(
                &transcript,
                &reference,
                &format!("concurrent epoch={epoch} client={i}"),
            );
        }
    }
    server.shutdown();
}

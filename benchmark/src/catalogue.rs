//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction, in the order of `BENCHMARK.json` (a test keeps the two
//! in step). `README.md` says what each one means and what it should move.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The six end-to-end metrics; every workload reports all of them. The
/// timing bounds are about twice the widest run-to-run spread seen on the
/// reference box (12–20 % between ten seeds, see the README's *Noise*),
/// which is the driver's cap of 25 %; memory repeats within 2 %.
pub const END_TO_END: [Spec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("requests_per_s", "1/s", Better::Higher, 0.25),
    e2e("expand_root_p50_ms", "ms", Better::Lower, 0.25),
    e2e("expand_memory_p50_ms", "ms", Better::Lower, 0.25),
    e2e("expand_p95_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05),
];

/// The per-layer metrics of the traced run; every workload reports all of
/// them. A name's prefix is the layer (crate) it measures; `bench` is the
/// harness judging itself.
pub const PER_LAYER: [Spec; 63] = [
    // server
    lower("server.parse_us", "us"),
    lower("server.serialize_us", "us"),
    lower("server.handle_self_us", "us"),
    lower("server.transport_us", "us"),
    lower("server.http_overhead_us", "us"),
    higher("server.concurrency_scaling", "ratio"),
    higher("server.cache_hit_ratio", "ratio"),
    lower("server.cache_evictions", "count"),
    lower("server.cache_bytes", "B"),
    higher("server.predict_predictions", "count"),
    higher("server.predict_speculations", "count"),
    lower("server.parse_append_ms", "ms"),
    lower("server.append_ms", "ms"),
    // explorer
    lower("explorer.expand_self_us", "us"),
    lower("explorer.prefetch_ms", "ms"),
    lower("explorer.refresh_ms", "ms"),
    lower("explorer.advance_epoch_us", "us"),
    higher("explorer.served_from_memory_ratio", "ratio"),
    lower("explorer.count_rel_err_p50", "ratio"),
    higher("explorer.ci_coverage", "ratio"),
    // sampling
    higher("sampling.find_ratio", "ratio"),
    higher("sampling.combine_ratio", "ratio"),
    lower("sampling.create_ratio", "ratio"),
    lower("sampling.get_sample_memory_us", "us"),
    lower("sampling.get_sample_create_ms", "ms"),
    lower("sampling.prefetch_job_ms", "ms"),
    lower("sampling.alloc_ms", "ms"),
    lower("sampling.sync_ms", "ms"),
    lower("sampling.full_scans_per_visit", "count"),
    lower("sampling.evictions_per_visit", "count"),
    lower("sampling.memory_used_tuples", "count"),
    higher("sampling.prefetch_parallel_speedup", "ratio"),
    // core
    lower("core.search_ms", "ms"),
    lower("core.searches", "count"),
    lower("core.brs_passes", "count"),
    lower("core.brs_counted", "count"),
    higher("core.brs_pruned_ratio", "ratio"),
    lower("core.search_full_ms", "ms"),
    higher("core.search_rows_per_s", "1/s"),
    lower("core.search_sharded_ratio", "ratio"),
    higher("core.search_parallel_speedup", "ratio"),
    lower("core.scan_ms", "ms"),
    higher("core.scan_rows_per_s", "1/s"),
    higher("core.scan_simd_speedup", "ratio"),
    lower("core.count_rules_ms", "ms"),
    // table
    lower("table.load_s", "s"),
    higher("table.load_rows_per_s", "1/s"),
    lower("table.shard_build_s", "s"),
    lower("table.segment_load_ms", "ms"),
    lower("table.read_columns_ms", "ms"),
    lower("table.loads_per_visit", "count"),
    lower("table.evictions_per_visit", "count"),
    lower("table.peak_resident", "count"),
    lower("table.spill_bytes", "B"),
    lower("table.bytes_per_row", "B"),
    lower("table.append_ms", "ms"),
    higher("table.append_rows_per_s", "1/s"),
    lower("table.segments_sealed", "count"),
    // bench
    lower("bench.input_gen_s", "s"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.ladder_gap_ratio", "ratio"),
    lower("bench.calibration_ms", "ms"),
    lower("bench.calibration_scan_ms", "ms"),
];

/// The workloads, with the one line `BENCHMARK.json` gives for each.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "explore_resident",
        "1M-row census table, monolithic and in memory, one analyst in-process, a fresh sampling seed per visit: sampling scans and the search on samples do the work; spill tier and server do almost none",
    ),
    (
        "explore_spill",
        "the same tape over a 32-shard store with 3 segments resident: segment loads and the sharded scan twins dominate; its transcript must equal the resident one's",
    ),
    (
        "serve_hot",
        "real TCP server, 9409-row table, one client replaying Zipf-popular dashboard visits: ~97% result-cache hits, so parse/registry/lock/cache/serialize/socket fixed costs are the cost",
    ),
    (
        "live_append",
        "live table growing by 1000 rows a round beside 8 long-lived sessions: appends, per-epoch sample maintenance and cache invalidation; a read gain bought with write cost shows here",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_server::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(s.name), "{} listed twice", s.name);
            assert!(s.name.len() <= 64 && s.unit.len() <= 16);
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
    }

    /// `BENCHMARK.json` at the repository root says what this catalogue
    /// says.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let spec = |s: &Spec| {
            (
                s.name.to_owned(),
                s.unit.to_owned(),
                s.better.word().to_owned(),
                s.bound,
            )
        };
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(spec).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(spec).collect::<Vec<_>>()
        );
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_owned();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_usize),
            Some(crate::cli::DEFAULT_SECONDS as usize)
        );
        assert_eq!(
            json.get("paths").map(ToString::to_string).as_deref(),
            Some(r#"["benchmark"]"#)
        );
    }
}

//! Synthetic substitute for the UCI *US Census 1990* extract (§5).
//!
//! The original: ~2.5 million persons × 68 pre-bucketized attributes. What
//! the paper's experiments exercise on it is **scale** (the sample-creation
//! scan dominates, §5.2.3) and **skew** (a-priori pruning bites because
//! counts decay fast with rule size). We reproduce both:
//!
//! * 68 columns named after the UCI attributes, with a realistic mix of
//!   cardinalities (binary flags through ~40-value buckets),
//! * a latent-profile mixture: each row draws a hidden profile (Zipf-
//!   distributed) and copies the profile's value for each column with
//!   probability `coherence`, otherwise a Zipf-random value — producing
//!   correlated blocks that smart drill-down can find,
//! * configurable row count, so tests run on thousands of rows while the
//!   benchmark harness runs the paper-scale 2.5 M.

use crate::zipf::Zipf;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sdd_table::{Schema, Table};

/// Row count of the original extract.
pub const FULL_ROWS: usize = 2_458_285;

/// The 68 attribute names of the UCI extract (case id excluded).
pub const COLUMNS: [&str; 68] = [
    "dAge",
    "dAncstry1",
    "dAncstry2",
    "iAvail",
    "iCitizen",
    "iClass",
    "dDepart",
    "iDisabl1",
    "iDisabl2",
    "iEnglish",
    "iFeb55",
    "iFertil",
    "dHispanic",
    "dHour89",
    "dHours",
    "iImmigr",
    "dIncome1",
    "dIncome2",
    "dIncome3",
    "dIncome4",
    "dIncome5",
    "dIncome6",
    "dIncome7",
    "dIncome8",
    "dIndustry",
    "iKorean",
    "iLang1",
    "iLooking",
    "iMarital",
    "iMay75880",
    "iMeans",
    "iMilitary",
    "iMobility",
    "iMobillim",
    "dOccup",
    "iOthrserv",
    "iPerscare",
    "dPOB",
    "dPoverty",
    "dPwgt1",
    "iRagechld",
    "dRearning",
    "iRelat1",
    "iRelat2",
    "iRemplpar",
    "iRiders",
    "iRlabor",
    "iRownchld",
    "dRpincome",
    "iRPOB",
    "iRrelchld",
    "iRspouse",
    "iRvetserv",
    "iSchool",
    "iSept80",
    "iSex",
    "iSubfam1",
    "iSubfam2",
    "iTmpabsnt",
    "dTravtime",
    "iVietnam",
    "dWeek89",
    "iWork89",
    "iWorklwk",
    "iWWII",
    "iYearsch",
    "iYearwrk",
    "dYrsserv",
];

/// Per-column cardinality: deterministic, heavy on small buckets like the
/// original (`i*` columns are mostly 2–5 codes, `d*` columns up to ~40).
pub fn cardinality(col: usize) -> usize {
    let name = COLUMNS[col];
    if name.starts_with('i') {
        match col % 4 {
            0 => 2,
            1 => 3,
            2 => 4,
            _ => 5,
        }
    } else {
        match col % 5 {
            0 => 8,
            1 => 10,
            2 => 13,
            3 => 17,
            _ => 40,
        }
    }
}

/// Configuration for the census generator.
#[derive(Debug, Clone)]
pub struct CensusConfig {
    /// Number of rows to generate.
    pub n_rows: usize,
    /// Number of latent profiles (correlated blocks).
    pub n_profiles: usize,
    /// Probability a cell copies its profile's value (vs. Zipf noise).
    pub coherence: f64,
    /// Zipf exponent for both profile choice and noise values.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        Self {
            n_rows: 100_000,
            n_profiles: 24,
            coherence: 0.55,
            skew: 1.1,
            seed: 1990,
        }
    }
}

/// Generates a census-shaped table with `n_rows` rows. Deterministic per
/// `seed`.
pub fn census(n_rows: usize, seed: u64) -> Table {
    census_with(CensusConfig {
        n_rows,
        seed,
        ..CensusConfig::default()
    })
}

/// [`census`] with only its first `n_cols` columns: every RNG draw of the
/// 68-column table is made, in the same order, so the result equals
/// `census(n_rows, seed).project_first_columns(n_cols)` without ever
/// holding the other columns.
pub fn census_first_columns(n_rows: usize, n_cols: usize, seed: u64) -> Table {
    generate(
        &CensusConfig {
            n_rows,
            seed,
            ..CensusConfig::default()
        },
        n_cols,
    )
}

/// Generates with full control over the mixture parameters.
pub fn census_with(cfg: CensusConfig) -> Table {
    generate(&cfg, COLUMNS.len())
}

/// The one census loop: draws every column of every row and pushes the
/// first `keep` of them.
fn generate(cfg: &CensusConfig, keep: usize) -> Table {
    let keep = keep.min(COLUMNS.len());
    assert!(cfg.n_profiles > 0, "need at least one profile");
    assert!(
        (0.0..=1.0).contains(&cfg.coherence),
        "coherence is a probability"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_cols = COLUMNS.len();

    // Pre-intern every possible label per column so dictionary codes are
    // stable and the builder never re-hashes long strings: labels are "v0",
    // "v1", ... per column.
    let labels: Vec<Vec<String>> = (0..n_cols)
        .map(|c| (0..cardinality(c)).map(|v| format!("v{v}")).collect())
        .collect();

    // Latent profiles: one preferred value per column each.
    let profiles: Vec<Vec<usize>> = (0..cfg.n_profiles)
        .map(|_| {
            (0..n_cols)
                .map(|c| rng.gen_range(0..cardinality(c)))
                .collect()
        })
        .collect();
    let profile_z = Zipf::new(cfg.n_profiles, cfg.skew);
    let noise_z: Vec<Zipf> = (0..n_cols)
        .map(|c| Zipf::new(cardinality(c), cfg.skew))
        .collect();

    let schema = Schema::new(COLUMNS[..keep].iter().copied()).expect("unique names");
    let mut b = Table::builder(schema);
    b.reserve(cfg.n_rows);
    let mut row: Vec<&str> = Vec::with_capacity(keep);
    for _ in 0..cfg.n_rows {
        let p = profile_z.sample(&mut rng);
        row.clear();
        for c in 0..n_cols {
            let v = if rng.gen::<f64>() < cfg.coherence {
                profiles[p][c]
            } else {
                noise_z[c].sample(&mut rng)
            };
            if c < keep {
                row.push(&labels[c][v]);
            }
        }
        b.push_row(&row).expect("one field per kept column");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_table::stats::column_stats;

    #[test]
    fn has_68_columns_with_expected_cardinalities() {
        let t = census(2000, 1);
        assert_eq!(t.n_columns(), 68);
        assert_eq!(t.n_rows(), 2000);
        for c in 0..68 {
            assert!(t.cardinality(c) <= cardinality(c), "column {c}");
            assert!(t.cardinality(c) >= 1);
        }
    }

    #[test]
    fn values_are_skewed() {
        let t = census(5000, 2);
        // Most columns should have a clearly dominant value thanks to the
        // Zipf profile mixture.
        let dominated = (0..68)
            .filter(|&c| column_stats(&t, c).top_fraction > 1.5 / cardinality(c) as f64)
            .count();
        // Binary columns can't exceed the 1.5× bar as easily; ~half the
        // columns clearing it is strong evidence of skew.
        assert!(dominated > 34, "only {dominated} columns show skew");
    }

    #[test]
    fn profiles_induce_cross_column_correlation() {
        let t = census(8000, 3);
        // Take two high-cardinality columns and check that the joint top
        // pair is far more frequent than independence would predict.
        let (c1, c2) = (4, 6); // iCitizen (3 codes), dDepart (13 codes)
        let s1 = column_stats(&t, c1);
        let s2 = column_stats(&t, c2);
        let (v1, v2) = (s1.top_code.unwrap(), s2.top_code.unwrap());
        let joint = (0..t.n_rows() as u32)
            .filter(|&r| t.code(r, c1) == v1 && t.code(r, c2) == v2)
            .count() as f64
            / t.n_rows() as f64;
        let indep = s1.top_fraction * s2.top_fraction;
        assert!(joint > 1.05 * indep, "joint {joint} vs independent {indep}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = census(300, 5);
        let b = census(300, 5);
        for r in 0..300u32 {
            for c in 0..68 {
                assert_eq!(a.code(r, c), b.code(r, c));
            }
        }
    }

    #[test]
    fn first_columns_equal_the_projected_full_table() {
        let full = census(3000, 1990).project_first_columns(7);
        let first = census_first_columns(3000, 7, 1990);
        assert_eq!(first.n_columns(), 7);
        assert_eq!(first.n_rows(), 3000);
        for c in 0..7 {
            assert_eq!(first.schema().column_name(c), full.schema().column_name(c));
            assert_eq!(first.cardinality(c), full.cardinality(c));
            for v in 0..full.cardinality(c) as u32 {
                let (a, b) = (first.dictionary(c), full.dictionary(c));
                assert_eq!(a.value_of(v), b.value_of(v), "column {c}");
            }
            for r in 0..3000u32 {
                assert_eq!(first.code(r, c), full.code(r, c), "row {r} column {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn zero_profiles_rejected() {
        let _ = census_with(CensusConfig {
            n_profiles: 0,
            ..CensusConfig::default()
        });
    }
}

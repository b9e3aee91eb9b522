//! Synthetic substitute for the paper's *Marketing* dataset (§5).
//!
//! The original: 9409 questionnaires from San Francisco Bay Area shopping
//! malls, 14 pre-bucketized demographic columns with ≤ 10 distinct values
//! each. We generate the same shape — the paper's exact column names and
//! order, matching cardinalities, heavy-tailed marginals — and plant the
//! correlations the paper's screenshots surface:
//!
//! * most respondents have lived in the Bay Area > 10 years (Fig. 1),
//! * a large female × >10-years block (Fig. 1 rule 3),
//! * a never-married male × >10-years block (Fig. 1 rule 4),
//! * education/income/occupation coupling (Fig. 2's education expansion),
//! * household-structure couplings (dual income ⇔ married, persons-under-18
//!   ≤ persons-in-household, homeowner ⇔ house, language ⇔ ethnicity) that
//!   give the Bits weighting something multi-column to find (Figs. 6–7).

use crate::zipf::weighted_pick;
use rand::{rngs::StdRng, SeedableRng};
use sdd_table::{Schema, Table};

/// Row count of the original dataset.
pub const N_ROWS: usize = 9409;

/// The paper's 14 demographic columns, in the order it lists them (§5).
pub const COLUMNS: [&str; 14] = [
    "Income",
    "Sex",
    "MaritalStatus",
    "Age",
    "Education",
    "Occupation",
    "YearsInBayArea",
    "DualIncome",
    "PersonsInHousehold",
    "PersonsUnder18",
    "HouseholderStatus",
    "TypeOfHome",
    "Ethnicity",
    "Language",
];

/// Generates the synthetic Marketing table (9409 × 14). Deterministic per
/// `seed`.
pub fn marketing(seed: u64) -> Table {
    marketing_sized(N_ROWS, seed)
}

/// Same generator with a custom row count (for quick tests).
pub fn marketing_sized(n_rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(COLUMNS).expect("unique names");
    let mut b = Table::builder(schema);
    b.reserve(n_rows);
    for _ in 0..n_rows {
        let row = sample_person(&mut rng);
        b.push_row(&row).expect("14 fields");
    }
    b.build()
}

fn sample_person(rng: &mut StdRng) -> [&'static str; 14] {
    // Sex: slight female majority, as in the original (4918 F / 4075 M + NA).
    let sex = weighted_pick(rng, &[("Female", 52.3), ("Male", 47.7)]);

    // Years in Bay Area: dominated by long-term residents.
    let years = weighted_pick(
        rng,
        &[
            (">10years", 59.0),
            ("7-10years", 12.0),
            ("4-6years", 11.0),
            ("1-3years", 11.0),
            ("<1year", 7.0),
        ],
    );

    // Age, skewed toward 18–34 (mall-intercept survey population).
    let age = weighted_pick(
        rng,
        &[
            ("14-17", 6.0),
            ("18-24", 22.0),
            ("25-34", 28.0),
            ("35-44", 18.0),
            ("45-54", 11.0),
            ("55-64", 8.0),
            ("65+", 7.0),
        ],
    );

    // Marital status depends on age; long-term never-married males form a
    // visible block (paper Fig. 1: 980 never-married, >10yr males).
    let marital = match age {
        "14-17" => weighted_pick(rng, &[("NeverMarried", 97.0), ("Married", 3.0)]),
        "18-24" => weighted_pick(
            rng,
            &[
                ("NeverMarried", 70.0),
                ("Married", 20.0),
                ("Cohabiting", 10.0),
            ],
        ),
        "25-34" => weighted_pick(
            rng,
            &[
                ("Married", 45.0),
                ("NeverMarried", if sex == "Male" { 40.0 } else { 30.0 }),
                ("Cohabiting", 10.0),
                ("Divorced", 5.0),
            ],
        ),
        "35-44" => weighted_pick(
            rng,
            &[
                ("Married", 60.0),
                ("Divorced", 15.0),
                ("NeverMarried", if sex == "Male" { 18.0 } else { 10.0 }),
                ("Cohabiting", 7.0),
            ],
        ),
        _ => weighted_pick(
            rng,
            &[
                ("Married", 62.0),
                ("Divorced", 14.0),
                ("Widowed", 14.0),
                ("NeverMarried", 8.0),
                ("Cohabiting", 2.0),
            ],
        ),
    };

    // Education, coupled to age (younger respondents still in school).
    let education = match age {
        "14-17" => weighted_pick(
            rng,
            &[("Grade9-11", 70.0), ("HSGraduate", 25.0), ("<Grade9", 5.0)],
        ),
        "18-24" => weighted_pick(
            rng,
            &[
                ("College1-3", 45.0),
                ("HSGraduate", 30.0),
                ("CollegeGrad", 15.0),
                ("Grade9-11", 8.0),
                ("GradStudy", 2.0),
            ],
        ),
        _ => weighted_pick(
            rng,
            &[
                ("CollegeGrad", 28.0),
                ("College1-3", 25.0),
                ("HSGraduate", 24.0),
                ("GradStudy", 14.0),
                ("Grade9-11", 6.0),
                ("<Grade9", 3.0),
            ],
        ),
    };

    // Income coupled to education and age.
    let income_bias = match education {
        "GradStudy" => 3,
        "CollegeGrad" => 2,
        "College1-3" => 1,
        _ => 0,
    } + if age == "14-17" || age == "18-24" {
        -2i32
    } else {
        0
    };
    let income = pick_income(rng, income_bias);

    // Occupation coupled to age/education.
    let occupation = match age {
        "14-17" => weighted_pick(rng, &[("Student", 90.0), ("Sales", 7.0), ("Laborer", 3.0)]),
        "18-24" => weighted_pick(
            rng,
            &[
                ("Student", 40.0),
                ("Sales", 16.0),
                ("Clerical", 14.0),
                ("Professional", 14.0),
                ("Laborer", 10.0),
                ("Military", 4.0),
                ("Unemployed", 2.0),
            ],
        ),
        "65+" => weighted_pick(
            rng,
            &[
                ("Retired", 80.0),
                ("Professional", 10.0),
                ("Homemaker", 10.0),
            ],
        ),
        _ => {
            let prof_w = match education {
                "GradStudy" => 55.0,
                "CollegeGrad" => 45.0,
                _ => 22.0,
            };
            weighted_pick(
                rng,
                &[
                    ("Professional", prof_w),
                    ("Clerical", 16.0),
                    ("Sales", 13.0),
                    ("Laborer", 11.0),
                    ("Homemaker", if sex == "Female" { 13.0 } else { 1.0 }),
                    ("Unemployed", 4.0),
                    ("Retired", 3.0),
                    ("Military", 2.0),
                ],
            )
        }
    };

    // Dual income: structurally tied to marital status (the original codes
    // "not married" as its own value).
    let dual_income = if marital == "Married" {
        weighted_pick(rng, &[("Yes", 55.0), ("No", 45.0)])
    } else {
        "NotMarried"
    };

    // Household size and minors: under-18 count bounded by household size.
    let persons = weighted_pick(
        rng,
        &[
            ("1", 18.0),
            ("2", 30.0),
            ("3", 19.0),
            ("4", 17.0),
            ("5", 9.0),
            ("6", 4.0),
            ("7", 1.5),
            ("8", 1.0),
            ("9+", 0.5),
        ],
    );
    let max_minors = persons.trim_end_matches('+').parse::<usize>().unwrap_or(9) - 1;
    let under18 = pick_under18(rng, max_minors, marital);

    // Householder status / home type coupling.
    let householder = match age {
        "14-17" => "LivesWithFamily",
        "18-24" => weighted_pick(
            rng,
            &[("Rent", 45.0), ("LivesWithFamily", 40.0), ("Own", 15.0)],
        ),
        _ => weighted_pick(
            rng,
            &[("Own", 50.0), ("Rent", 40.0), ("LivesWithFamily", 10.0)],
        ),
    };
    let home = if householder == "Own" {
        weighted_pick(
            rng,
            &[
                ("House", 75.0),
                ("Condo", 15.0),
                ("MobileHome", 7.0),
                ("Other", 3.0),
            ],
        )
    } else {
        weighted_pick(
            rng,
            &[
                ("Apartment", 55.0),
                ("House", 30.0),
                ("Condo", 10.0),
                ("Other", 5.0),
            ],
        )
    };

    // Ethnicity / language coupling.
    let ethnicity = weighted_pick(
        rng,
        &[
            ("White", 62.0),
            ("Hispanic", 12.0),
            ("Asian", 11.0),
            ("Black", 8.0),
            ("EastIndian", 2.5),
            ("PacificIslander", 2.0),
            ("AmericanIndian", 1.5),
            ("Other", 1.0),
        ],
    );
    let language = match ethnicity {
        "Hispanic" => weighted_pick(rng, &[("Spanish", 55.0), ("English", 43.0), ("Other", 2.0)]),
        "Asian" | "EastIndian" => weighted_pick(rng, &[("English", 70.0), ("Other", 30.0)]),
        _ => weighted_pick(rng, &[("English", 97.0), ("Other", 2.0), ("Spanish", 1.0)]),
    };

    [
        income,
        sex,
        marital,
        age,
        education,
        occupation,
        years,
        dual_income,
        persons,
        under18,
        householder,
        home,
        ethnicity,
        language,
    ]
}

fn pick_income(rng: &mut StdRng, bias: i32) -> &'static str {
    const LEVELS: [&str; 9] = [
        "<$10k", "$10-15k", "$15-20k", "$20-25k", "$25-30k", "$30-40k", "$40-50k", "$50-75k",
        "$75k+",
    ];
    // Base heavy-ish middle; bias shifts the center.
    let center = (3 + bias).clamp(0, 8) as f64;
    let weights: Vec<(&str, f64)> = LEVELS
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let d = (i as f64 - center).abs();
            (l, (6.0 - d).max(0.5))
        })
        .collect();
    weighted_pick(rng, &weights)
}

fn pick_under18(rng: &mut StdRng, max_minors: usize, marital: &str) -> &'static str {
    const LABELS: [&str; 9] = ["0", "1", "2", "3", "4", "5", "6", "7", "8+"];
    if max_minors == 0 {
        return "0";
    }
    let married_bonus = if marital == "Married" { 1.4 } else { 0.6 };
    let weights: Vec<(&str, f64)> = LABELS
        .iter()
        .take(max_minors + 1)
        .enumerate()
        .map(|(i, &l)| {
            let w = if i == 0 {
                10.0
            } else {
                6.0 * married_bonus / i as f64
            };
            (l, w)
        })
        .collect();
    weighted_pick(rng, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::{rule_count, Rule};
    use sdd_table::stats::column_stats;

    #[test]
    fn has_paper_shape() {
        let t = marketing_sized(2000, 42);
        assert_eq!(t.n_rows(), 2000);
        assert_eq!(t.n_columns(), 14);
        assert_eq!(t.schema().column_name(4), "Education");
        // Every column bucketized: ≤ 10 distinct values (paper §5).
        for c in 0..14 {
            assert!(
                t.cardinality(c) <= 10,
                "column {c} has {}",
                t.cardinality(c)
            );
        }
    }

    #[test]
    fn full_size_matches_paper() {
        let t = marketing(42);
        assert_eq!(t.n_rows(), N_ROWS);
    }

    #[test]
    fn long_term_residents_dominate() {
        let t = marketing_sized(3000, 42);
        let s = column_stats(&t, t.schema().index_of("YearsInBayArea").unwrap());
        assert!(s.top_fraction > 0.45);
    }

    #[test]
    fn planted_female_longterm_block_exists() {
        let t = marketing_sized(5000, 42);
        let view = t.view();
        let r = Rule::from_pairs(&t, &[("Sex", "Female"), ("YearsInBayArea", ">10years")]).unwrap();
        let c = rule_count(&view, &r);
        // Roughly 52% × 59% ≈ 30% of rows.
        assert!(c > 0.2 * 5000.0, "block too small: {c}");
    }

    #[test]
    fn dual_income_is_consistent_with_marital_status() {
        let t = marketing_sized(3000, 42);
        let marital = t.schema().index_of("MaritalStatus").unwrap();
        let dual = t.schema().index_of("DualIncome").unwrap();
        for row in 0..t.n_rows() as u32 {
            let m = t.value(row, marital);
            let d = t.value(row, dual);
            if m == "Married" {
                assert_ne!(d, "NotMarried");
            } else {
                assert_eq!(d, "NotMarried");
            }
        }
    }

    #[test]
    fn minors_never_exceed_household_size() {
        let t = marketing_sized(3000, 42);
        let persons = t.schema().index_of("PersonsInHousehold").unwrap();
        let under = t.schema().index_of("PersonsUnder18").unwrap();
        for row in 0..t.n_rows() as u32 {
            let p: usize = t.value(row, persons).trim_end_matches('+').parse().unwrap();
            let u: usize = t.value(row, under).trim_end_matches('+').parse().unwrap();
            assert!(
                u < p || (p == 9 && u <= 8),
                "row {row}: {u} minors in household of {p}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = marketing_sized(200, 9);
        let b = marketing_sized(200, 9);
        for row in 0..200u32 {
            for c in 0..14 {
                assert_eq!(a.value(row, c), b.value(row, c));
            }
        }
    }
}

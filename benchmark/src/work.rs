//! The scratch directory and the generated input files.
//!
//! Everything the benchmark writes lives under `benchmark/target/` of the
//! checkout it runs in (`target/` is ignored by git): generated inputs are
//! kept between runs — they depend on constants only, never on `--seed` —
//! while spill directories belong to one process and go when it exits.

use sdd_table::Table;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the census-shaped generator (the year of the original extract).
pub const CENSUS_SEED: u64 = 1990;
/// Seed of the marketing-shaped generator.
pub const MARKETING_SEED: u64 = 2016;
/// The paper's display convention: tables restricted to their first 7
/// columns (§5).
pub const COLUMNS: usize = 7;

/// Where the benchmark may write.
#[derive(Debug)]
pub struct Workdir {
    root: PathBuf,
    scratch: PathBuf,
}

impl Workdir {
    /// Opens `benchmark/target/` below the current directory, which must be
    /// the root of a checkout (the directory holding `BENCHMARK.json`).
    pub fn open() -> Result<Workdir, String> {
        if !Path::new("benchmark/Cargo.toml").is_file() {
            return Err("run from the repository root (benchmark/Cargo.toml not found)".to_owned());
        }
        Self::at(Path::new("benchmark/target"))
    }

    /// Opens a work directory at `root` (tests use a directory of their own).
    pub fn at(root: &Path) -> Result<Workdir, String> {
        let scratch = root.join(format!("work/run-{}", std::process::id()));
        for dir in [
            root.join("work/inputs"),
            root.join("trace"),
            scratch.clone(),
        ] {
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        Ok(Workdir {
            root: root.to_path_buf(),
            scratch,
        })
    }

    /// This process's private directory (spill files); removed on drop.
    pub fn scratch(&self) -> &Path {
        &self.scratch
    }

    /// Where the span file of a traced run goes.
    pub fn trace_file(&self, workload: &str) -> PathBuf {
        self.root.join(format!("trace/{workload}.json"))
    }

    /// The census-shaped input of `rows` rows as a CSV file, generating it
    /// when absent. Returns the path and the seconds spent making it
    /// available (generation, or a length check of the kept file).
    pub fn census_csv(&self, rows: usize) -> Result<(PathBuf, f64), String> {
        self.input(&format!("census{COLUMNS}-{rows}-{CENSUS_SEED}.csv"), || {
            sdd_datagen::census(rows, CENSUS_SEED).project_first_columns(COLUMNS)
        })
    }

    /// The marketing-shaped input (9 409 rows) as a CSV file.
    pub fn marketing_csv(&self) -> Result<(PathBuf, f64), String> {
        self.input(&format!("marketing{COLUMNS}-{MARKETING_SEED}.csv"), || {
            sdd_datagen::marketing(MARKETING_SEED).project_first_columns(COLUMNS)
        })
    }

    fn input(&self, name: &str, make: impl FnOnce() -> Table) -> Result<(PathBuf, f64), String> {
        let started = Instant::now();
        let path = self.root.join("work/inputs").join(name);
        // A kept file is complete: it only ever appears by rename.
        if !std::fs::metadata(&path).is_ok_and(|m| m.len() > 0) {
            let table = make();
            check_values_split_cleanly(&table)?;
            let tmp = self.scratch.join(name);
            std::fs::write(&tmp, sdd_table::csv::write_csv(&table))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok((path, started.elapsed().as_secs_f64()))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The visit scripts read starred columns off displayed rules by splitting
/// on `", "`; a value containing that separator would break them.
fn check_values_split_cleanly(table: &Table) -> Result<(), String> {
    for c in 0..table.n_columns() {
        for code in 0..table.cardinality(c) as u32 {
            let v = table.dictionary(c).value_of(code).unwrap_or("");
            if v.contains(", ") || v == "?" {
                return Err(format!("input value {v:?} would confuse the visit scripts"));
            }
        }
    }
    Ok(())
}

//! Shared dataset construction for the experiments, matching the paper's
//! setup: "in all our experiments, we restrict the tables to the first 7
//! columns" (§5).

use sdd_table::Table;
use std::sync::Arc;

/// The walkthrough retail table (6000 rows, 3 columns).
pub fn retail() -> Arc<Table> {
    Arc::new(sdd_datagen::retail(42))
}

/// The Marketing dataset projected to its first 7 columns (paper §5).
pub fn marketing7() -> Arc<Table> {
    Arc::new(sdd_datagen::marketing(2016).project_first_columns(7))
}

/// A census-shaped dataset with `n` rows, projected to 7 columns.
pub fn census7(n: usize) -> Arc<Table> {
    Arc::new(sdd_datagen::census_first_columns(n, 7, 1990))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper() {
        assert_eq!(retail().n_rows(), 6000);
        let m = marketing7();
        assert_eq!(m.n_rows(), 9409);
        assert_eq!(m.n_columns(), 7);
        let c = census7(1000);
        assert_eq!(c.n_rows(), 1000);
        assert_eq!(c.n_columns(), 7);
    }
}

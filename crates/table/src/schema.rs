use crate::TableError;

/// Metadata for one categorical column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    name: String,
}

impl ColumnDef {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }

    /// The column's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// An ordered list of categorical columns. The paper's set `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema from column names, rejecting duplicates.
    pub fn new<I, S>(names: I) -> Result<Self, TableError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let columns: Vec<ColumnDef> = names
            .into_iter()
            .map(|n| ColumnDef::new(n.into()))
            .collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name() == c.name()) {
                return Err(TableError::DuplicateColumn(c.name().to_owned()));
            }
        }
        Ok(Self { columns })
    }

    /// Number of columns, the paper's `|C|`.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// The name of column `idx`. Panics if out of range.
    pub fn column_name(&self, idx: usize) -> &str {
        self.columns[idx].name()
    }

    /// Resolves a column name to its index.
    pub fn index_of(&self, name: &str) -> Result<usize, TableError> {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .ok_or_else(|| TableError::UnknownColumn(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_resolves_names() {
        let s = Schema::new(["Store", "Product", "Region"]).unwrap();
        assert_eq!(s.n_columns(), 3);
        assert_eq!(s.index_of("Product").unwrap(), 1);
        assert_eq!(s.column_name(2), "Region");
        assert!(matches!(
            s.index_of("Sales"),
            Err(TableError::UnknownColumn(_))
        ));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(["a", "b", "a"]).unwrap_err();
        assert_eq!(err, TableError::DuplicateColumn("a".to_owned()));
    }

    #[test]
    fn empty_schema_is_allowed() {
        // A zero-column schema is degenerate but legal; the core crate guards
        // against running drill-downs over it.
        let s = Schema::new(Vec::<String>::new()).unwrap();
        assert_eq!(s.n_columns(), 0);
    }
}

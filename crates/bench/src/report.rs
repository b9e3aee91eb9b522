//! Report output: aligned text tables on stdout plus CSV files under
//! `target/experiments/` so a write-up can cite exact numbers.

use std::fs;
use std::path::PathBuf;

/// Directory all experiment CSVs are written to.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Writes `rows` (first row = header) as CSV to `target/experiments/<name>`.
pub fn write_csv(name: &str, rows: &[Vec<String>]) -> PathBuf {
    let path = out_dir().join(name);
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .map(|f| {
                if f.contains(',') || f.contains('"') {
                    format!("\"{}\"", f.replace('"', "\"\""))
                } else {
                    f.clone()
                }
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("can write experiment CSV");
    path
}

/// Prints `rows` (first row = header) as an aligned text table.
pub fn print_table(rows: &[Vec<String>]) {
    let n = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; n];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for (ri, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<w$}", cell, w = widths[i]));
        }
        println!("{}", line.trim_end());
        if ri == 0 {
            println!(
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (n.saturating_sub(1)))
            );
        }
    }
}

/// Convenience: turn anything displayable into a row of strings.
#[macro_export]
macro_rules! row {
    ($($x:expr),* $(,)?) => {
        vec![$(format!("{}", $x)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_on_disk() {
        let rows = vec![row!["a", "b"], row![1, 2.5], row!["x,y", "q\"q"]];
        let path = write_csv("unit_test.csv", &rows);
        let text = fs::read_to_string(path).unwrap();
        assert!(text.starts_with("a,b\n1,2.5\n"));
        assert!(text.contains("\"x,y\""));
        assert!(text.contains("\"q\"\"q\""));
    }

    #[test]
    fn row_macro_formats() {
        let r = row![1, "two", 3.0];
        assert_eq!(r, vec!["1", "two", "3"]);
    }
}

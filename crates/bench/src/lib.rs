//! # netsolve-bench
//!
//! The experiment harness regenerating every reconstructed table and
//! figure of the NetSolve evaluation (R1–R8 in DESIGN.md). Each
//! experiment is a binary under `src/bin/`; criterion micro-benchmarks
//! live under `benches/`. This library holds the shared table printer
//! and `results/` report writer so every experiment reports in the same
//! format.

#![warn(missing_docs)]

/// Simple aligned table printer for experiment output.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header_line.join("  "));
        println!("{}", "-".repeat(header_line.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }
}

/// Write `results/BENCH_<experiment>.json`: `experiment`, `description`
/// (plain text, no quotes or backslashes), then `fields` in order. Values
/// are already-rendered JSON — numbers and booleans via `format!`, nested
/// objects via [`json_object`] — so each experiment keeps its own
/// precision.
pub fn write_report(experiment: &str, description: &str, fields: &[(&str, String)]) {
    let path = format!("{}/../../results/BENCH_{experiment}.json", env!("CARGO_MANIFEST_DIR"));
    let mut lines = vec![
        format!("  \"experiment\": \"{experiment}\""),
        format!("  \"description\": \"{description}\""),
    ];
    lines.extend(fields.iter().map(|(key, value)| format!("  \"{key}\": {value}")));
    std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// An inline JSON object from already-rendered values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(key, value)| format!("\"{key}\": {value}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Format seconds compactly for table cells.
pub fn secs(x: f64) -> String {
    netsolve_core::units::fmt_secs(x)
}

/// Format a ratio like `3.42x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// An ASCII bar for distribution columns.
pub fn bar(count: usize, max: usize, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let n = (count * width).div_ceil(max.max(1)).min(width);
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["30".into(), "4".into()]);
        t.print(); // must not panic
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn json_objects_nest_inline() {
        let inner = json_object(&[("n", "3".into()), ("ok", "true".into())]);
        assert_eq!(inner, "{\"n\": 3, \"ok\": true}");
        assert_eq!(json_object(&[("inner", inner)]), "{\"inner\": {\"n\": 3, \"ok\": true}}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(2.5), "2.50x");
        assert_eq!(pct(0.257), "25.7%");
        assert_eq!(bar(5, 10, 10), "#####");
        assert_eq!(bar(0, 10, 10), "");
        assert_eq!(bar(10, 10, 10), "##########");
        assert_eq!(bar(3, 0, 10), "");
        assert!(secs(0.5).contains("ms"));
    }
}

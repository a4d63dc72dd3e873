//! What an experiment produces: rows of [`Cell`]s under named columns,
//! rendered once as the aligned text table and once as JSON.
//!
//! A cell holds the measured value, not its printed form, so the table can
//! show `104%` or `1.67 MB` where the JSON carries the un-rounded number —
//! and an experiment names each column exactly once.

use std::fmt::{self, Write as _};

/// One value in a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A deterministic counter.
    Count(u64),
    /// A counter printed with its unit after it (`128 slots`).
    CountOf(u64, &'static str),
    /// A real number printed to `decimals` places with a suffix
    /// (`("%", " MB", "")`); the JSON carries it un-rounded.
    Real {
        /// The measured value.
        value: f64,
        /// Decimal places in the printed table.
        decimals: usize,
        /// Printed after the number.
        suffix: &'static str,
    },
}

impl Cell {
    /// A label cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// A real printed to `decimals` places.
    pub fn real(value: f64, decimals: usize) -> Cell {
        Cell::Real { value, decimals, suffix: "" }
    }

    /// Wall-clock milliseconds, printed to one place.
    pub fn ms(value: f64) -> Cell {
        Cell::real(value, 1)
    }

    /// `100 * part / whole`, printed as a whole percentage.
    pub fn percent_of(part: f64, whole: f64) -> Cell {
        Cell::Real { value: part / whole * 100.0, decimals: 0, suffix: "%" }
    }

    /// The measured value as a JSON token.
    fn json(&self) -> String {
        match self {
            Cell::Text(s) => json_string(s),
            Cell::Count(n) | Cell::CountOf(n, _) => n.to_string(),
            // JSON has no NaN or infinity (a ratio over a zero time).
            Cell::Real { value, .. } if !value.is_finite() => "null".to_string(),
            Cell::Real { value, .. } => value.to_string(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::CountOf(n, unit) => write!(f, "{n} {unit}"),
            Cell::Real { value, decimals, suffix } => write!(f, "{value:.decimals$}{suffix}"),
        }
    }
}

/// An experiment's result, and its member of the JSON document: the scale
/// values it ran at, every column's name in row order, and the rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The scale values the experiment depends on, by name.
    pub params: Vec<(&'static str, u64)>,
    /// Column names, one per cell of a row.
    pub columns: Vec<&'static str>,
    /// The measured rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    fn index(&self, column: &str) -> usize {
        self.columns
            .iter()
            .position(|c| *c == column)
            .unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.columns))
    }

    /// The counter in `column` of row `row` — what the shape checks read.
    ///
    /// # Panics
    ///
    /// Panics if there is no such row or column, or the cell is not a
    /// counter: a check that names the wrong cell is a defect in the check.
    pub fn count(&self, row: usize, column: &str) -> u64 {
        match self.rows[row][self.index(column)] {
            Cell::Count(n) | Cell::CountOf(n, _) => n,
            ref other => panic!("row {row} column {column:?} is not a counter: {other:?}"),
        }
    }

    /// Overwrites one cell: how the tests break a shape on purpose.
    #[cfg(test)]
    pub(crate) fn set(&mut self, row: usize, column: &str, cell: Cell) {
        let i = self.index(column);
        self.rows[row][i] = cell;
    }
}

/// The document the `experiments` binary writes (DESIGN.md, "Metrics JSON
/// schema"): one `{params, columns, rows}` member per experiment run, a row
/// per line.
pub fn json_document(schema: &str, scale: &str, experiments: &[(&str, Table)]) -> String {
    let list = |items: Vec<String>| items.join(", ");
    let members: Vec<String> = experiments
        .iter()
        .map(|(key, t)| {
            let params = t.params.iter().map(|(name, value)| format!("\"{name}\": {value}"));
            let columns = t.columns.iter().map(|c| json_string(c));
            let rows: Vec<String> = t
                .rows
                .iter()
                .map(|row| format!("        [{}]", list(row.iter().map(Cell::json).collect())))
                .collect();
            format!(
                "    \"{key}\": {{\n      \"params\": {{{}}},\n      \"columns\": [{}],\n      \
                 \"rows\": [\n{}\n      ]\n    }}",
                list(params.collect()),
                list(columns.collect()),
                rows.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"scale\": \"{scale}\",\n  \"experiments\": {{\n{}\n  }}\n}}\n",
        members.join(",\n")
    )
}

/// Renders right-aligned columns under a dashed rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut lines: Vec<Vec<&str>> =
        vec![headers.to_vec(), rule.iter().map(String::as_str).collect()];
    lines.extend(rows.iter().map(|row| row.iter().map(String::as_str).collect()));
    let mut out = String::new();
    for cells in lines {
        for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
            let gap = if i > 0 { "  " } else { "" };
            let _ = write!(out, "{gap}{cell:>width$}");
        }
        out.push('\n');
    }
    out
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_print_rounded_and_export_unrounded() {
        let shown: Vec<String> = [
            Cell::text("call/1cc"),
            Cell::Count(42),
            Cell::CountOf(128, "slots"),
            Cell::ms(12.3456),
            Cell::percent_of(1.0, 3.0),
            Cell::Real { value: 1.671168, decimals: 2, suffix: " MB" },
        ]
        .iter()
        .map(Cell::to_string)
        .collect();
        assert_eq!(shown, ["call/1cc", "42", "128 slots", "12.3", "33%", "1.67 MB"]);

        let t = Table {
            params: vec![("x", 16), ("y", 8)],
            columns: vec!["name \"q\"", "n", "ms", "ratio"],
            rows: vec![
                vec![
                    Cell::text("a\\b"),
                    Cell::CountOf(7, "slots"),
                    Cell::ms(12.3456),
                    Cell::percent_of(1.0, 0.0),
                ],
                vec![Cell::text("c"), Cell::Count(8), Cell::ms(1.0), Cell::percent_of(1.0, 4.0)],
            ],
        };
        assert_eq!(t.count(0, "n"), 7);
        let json = json_document("s/v1", "quick", &[("one", t.clone()), ("two", t)]);
        let expected = r#"{
  "schema": "s/v1",
  "scale": "quick",
  "experiments": {
    "one": {
      "params": {"x": 16, "y": 8},
      "columns": ["name \"q\"", "n", "ms", "ratio"],
      "rows": [
        ["a\\b", 7, 12.3456, null],
        ["c", 8, 1, 25]
      ]
    },
    "two": {"#;
        assert!(json.starts_with(expected), "{json}");
        assert!(json.ends_with("      ]\n    }\n  }\n}\n"), "{json}");
    }

    #[test]
    fn render_right_aligns_under_a_rule() {
        let t = render(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "22".into()]],
        );
        assert_eq!(t, "     name  value\n---------  -----\n        a      1\nlong-name     22\n");
    }
}

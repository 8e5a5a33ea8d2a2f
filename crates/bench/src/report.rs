//! Table rendering for the experiment harness.

use std::fmt;

/// One regenerated table/figure.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// Title matching the EXPERIMENTS.md index.
    pub title: String,
    /// Free-form notes (parameters, seeds, expectations).
    pub notes: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

/// Append `items` as a 2-space pretty-printed JSON array whose closing
/// bracket sits at `indent` spaces (`[]` when empty).
fn write_array_pretty<T>(
    out: &mut String,
    items: &[T],
    indent: usize,
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push('[');
    for (index, item) in items.iter().enumerate() {
        out.push_str(if index == 0 { "\n" } else { ",\n" });
        out.extend(std::iter::repeat_n(' ', indent + 2));
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(']');
}

fn write_strings_pretty(out: &mut String, items: &[String], indent: usize) {
    write_array_pretty(out, items, indent, |out, item| {
        emd_json::write_escaped(out, item);
    });
}

/// The `experiments --json` document: `tables` as a 2-space
/// pretty-printed JSON array, no trailing newline.
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::new();
    write_array_pretty(&mut out, tables, 0, |out, table| table.to_json(out));
    out
}

impl Table {
    /// Start an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            notes: Vec::new(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append the JSON form, pretty-printed as one element of the
    /// [`tables_to_json`] array (so its braces sit at 2 spaces).
    fn to_json(&self, out: &mut String) {
        out.push_str("{\n    \"id\": ");
        emd_json::write_escaped(out, &self.id);
        out.push_str(",\n    \"title\": ");
        emd_json::write_escaped(out, &self.title);
        out.push_str(",\n    \"notes\": ");
        write_strings_pretty(out, &self.notes, 4);
        out.push_str(",\n    \"columns\": ");
        write_strings_pretty(out, &self.columns, 4);
        out.push_str(",\n    \"rows\": ");
        write_array_pretty(out, &self.rows, 4, |out, row| {
            write_strings_pretty(out, row, 6);
        });
        out.push_str("\n  }");
    }

    /// Append a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(cells);
    }
}

/// Format a float with three significant decimals, trimming noise.
pub fn fnum(value: f64) -> String {
    if value == 0.0 {
        "0".to_owned()
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.4}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for note in &self.notes {
            writeln!(f, "   {note}")?;
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(f, "   {}", header.join("  "))?;
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "   {}", "-".repeat(rule_len))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "   {}", cells.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut table = Table::new("E0", "demo", &["d'", "candidates"]);
        table.note("n=100");
        table.row(vec!["8".into(), "12.5".into()]);
        table.row(vec!["16".into(), "3.1".into()]);
        let text = table.to_string();
        assert!(text.contains("E0"));
        assert!(text.contains("candidates"));
        assert!(text.contains("12.5"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut table = Table::new("E0", "demo", &["a", "b"]);
        table.row(vec!["1".into()]);
    }

    /// The expected bytes are what the PR 18 build wrote for the same
    /// tables, pasted: the `--json` layout is pinned, not assumed.
    #[test]
    fn json_serialization_is_stable() {
        let mut table = Table::new("E1", "demo \"q\"", &["d'", "candidates"]);
        table.note("n=1");
        table.row(vec!["8".into(), "12.5".into()]);
        let empty = Table::new("E2", "empty", &["a"]);
        let expected = r#"[
  {
    "id": "E1",
    "title": "demo \"q\"",
    "notes": [
      "n=1"
    ],
    "columns": [
      "d'",
      "candidates"
    ],
    "rows": [
      [
        "8",
        "12.5"
      ]
    ]
  },
  {
    "id": "E2",
    "title": "empty",
    "notes": [],
    "columns": [
      "a"
    ],
    "rows": []
  }
]"#;
        let json = tables_to_json(&[table, empty]);
        assert_eq!(json, expected);
        assert_eq!(tables_to_json(&[]), "[]");

        let parsed = emd_json::parse(&json).unwrap();
        let first = &parsed.as_array().unwrap()[0];
        assert_eq!(
            first.get("id").and_then(emd_json::Value::as_str),
            Some("E1")
        );
        let rows = first
            .get("rows")
            .and_then(emd_json::Value::as_array)
            .unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("12.5"));
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.12345), "0.1235");
        assert_eq!(fnum(3.4567891), "3.457");
        assert_eq!(fnum(1234.5), "1234.5");
    }
}

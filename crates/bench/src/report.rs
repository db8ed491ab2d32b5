//! Plain-text table rendering and JSON result persistence.

use gpu_sim::trace::Json;
use std::path::Path;

/// A printable results table.
#[derive(Debug, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Row>,
}

/// One row of cells.
#[derive(Debug, Default, Clone)]
pub struct Row(pub Vec<String>);

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(Row(cells.to_vec()));
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.0.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(&row.0));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Geometric mean of positive values.
pub fn geo_mean(xs: &[f64]) -> f64 {
    sparse::stats::geometric_mean(xs)
}

/// Persist a result record under `results/<name>.json`, its fractional
/// numbers rounded to `FIGURE_DIGITS` significant digits.
pub fn write_json(name: &str, value: &Json) {
    write_or_exit(
        &Path::new("results").join(format!("{name}.json")),
        &rounded(value).pretty(),
    );
}

/// Significant digits kept for a fractional number in a figure record. The
/// records are diffed byte for byte on other hosts, and some values pass
/// through libm (`ln`, `exp`, `powf`), whose last bit may differ between C
/// libraries. Nine digits hide that and are far more than any figure
/// reports. Integral numbers (counts) are kept exact.
const FIGURE_DIGITS: usize = 9;

fn rounded(v: &Json) -> Json {
    match v {
        Json::Num(n) if n.is_finite() && n.fract() != 0.0 => {
            Json::Num(format!("{n:.*e}", FIGURE_DIGITS - 1).parse().unwrap_or(*n))
        }
        Json::Arr(items) => Json::Arr(items.iter().map(rounded).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), rounded(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Write `text` to `path`, creating its directory. A result that cannot be
/// kept fails the run: the process exits 1, and so does `reproduce_all`.
pub(crate) fn write_or_exit(path: &Path, text: &str) {
    let written = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => eprintln!("[results written to {}]", path.display()),
        Err(e) => {
            eprintln!("[failed to write {}: {e}]", path.display());
            std::process::exit(1);
        }
    }
}

/// Parse `--quick` / `--full` style flags from argv.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1.00".into()]);
        t.row(&["longer-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn figure_numbers_keep_nine_significant_digits() {
        let record = Json::obj([
            ("ratio", Json::from(2.0 / 3.0)),
            ("tiny", Json::Arr(vec![Json::from(1.234_567_890_12e-9)])),
            ("count", Json::from((1u64 << 53) - 1)),
            ("label", Json::from("x")),
            ("nan", Json::from(f64::NAN)),
        ]);
        assert_eq!(
            rounded(&record).compact(),
            "{\"ratio\":0.666666667,\"tiny\":[1.23456789e-9],\
             \"count\":9007199254740991,\"label\":\"x\",\"nan\":null}"
        );
        // One ulp apart (as two libms may answer) writes the same text.
        let x = 0.1f64.ln();
        let next = f64::from_bits(x.to_bits() + 1);
        assert_eq!(
            rounded(&Json::from(x)).compact(),
            rounded(&Json::from(next)).compact()
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}

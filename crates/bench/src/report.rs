//! One experiment's output: named top-level cells plus named tables of
//! named cells. [`Report::render`] prints it through [`table::render`];
//! [`Report::emit`] writes it as one stamped `BENCH_<name>.json`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use relmerge_obs as obs;

use crate::table;

/// One named value of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An exact count.
    Int(u64),
    /// A measured quantity and the decimals it is printed with.
    Num(f64, usize),
    /// A label.
    Text(String),
    /// A verdict.
    Bool(bool),
    /// A list of values.
    List(Vec<Cell>),
}

impl Cell {
    /// A list of values.
    pub fn list<T: Into<Cell>>(items: impl IntoIterator<Item = T>) -> Cell {
        Cell::List(items.into_iter().map(Into::into).collect())
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Cell::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Cell::Num(v, d) if v.is_finite() => {
                let _ = write!(out, "{v:.d$}");
            }
            Cell::Num(..) => out.push_str("null"),
            Cell::Text(s) => {
                let _ = write!(out, "\"{}\"", obs::json_escape(s));
            }
            Cell::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Cell::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Num(v, d) => write!(f, "{v:.d$}"),
            Cell::Text(s) => f.write_str(s),
            Cell::Bool(b) => write!(f, "{b}"),
            Cell::List(items) => {
                let parts: Vec<String> = items.iter().map(ToString::to_string).collect();
                write!(f, "[{}]", parts.join(", "))
            }
        }
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Cell {
        Cell::Bool(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Text(v.to_owned())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Text(v)
    }
}

impl From<&String> for Cell {
    fn from(v: &String) -> Cell {
        Cell::Text(v.clone())
    }
}

/// A list of named cells: one table row, or a report's top-level fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(pub Vec<(&'static str, Cell)>);

impl Row {
    /// An empty row.
    #[must_use]
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends the cell `name`.
    #[must_use]
    pub fn cell(mut self, name: &'static str, value: impl Into<Cell>) -> Row {
        self.0.push((name, value.into()));
        self
    }

    /// The cell `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
    }

    /// The count `name`; panics when it is missing or not a count.
    #[must_use]
    pub fn int(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Cell::Int(v)) => *v,
            other => panic!("cell `{name}` is not a count: {other:?}"),
        }
    }

    /// The quantity `name`; panics when it is missing or not numeric.
    #[must_use]
    pub fn num(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Cell::Num(v, _)) => *v,
            Some(Cell::Int(v)) => *v as f64,
            other => panic!("cell `{name}` is not numeric: {other:?}"),
        }
    }

    /// The label `name`; panics when it is missing or not a label.
    #[must_use]
    pub fn text(&self, name: &str) -> &str {
        match self.get(name) {
            Some(Cell::Text(s)) => s,
            other => panic!("cell `{name}` is not a label: {other:?}"),
        }
    }

    fn write_json(&self, out: &mut String) {
        for (i, (name, cell)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", obs::json_escape(name));
            cell.write_json(out);
        }
    }
}

/// One experiment's output.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The heading printed above the report.
    pub title: String,
    /// The instance size, e.g. `"40000 courses"`; printed and stamped.
    pub scale: String,
    /// Named top-level values.
    pub fields: Row,
    /// Named tables of rows.
    pub tables: Vec<(&'static str, Vec<Row>)>,
    /// Lines printed after the tables and never emitted: figure
    /// printouts and `--trace` operator trees.
    pub text: Vec<String>,
}

impl Report {
    /// An empty report under `title`.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Report {
        Report {
            title: title.into(),
            ..Report::default()
        }
    }

    /// The rows of table `name`; panics when there is no such table.
    #[must_use]
    pub fn table(&self, name: &str) -> &[Row] {
        self.tables
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("no table `{name}`"), |(_, rows)| rows)
    }

    /// The report as text: the heading, the scale, the fields, each
    /// table (columns are the union of its rows' cell names), then the
    /// text lines.
    #[must_use]
    pub fn render(&self, smoke: bool) -> String {
        let mut out = format!("\n==== {} ====\n\n", self.title);
        if !self.scale.is_empty() {
            let mode = if smoke { "smoke" } else { "full" };
            let _ = writeln!(out, "scale: {} ({mode} mode)\n", self.scale);
        }
        if !self.fields.0.is_empty() {
            let rows: Vec<Vec<String>> = self
                .fields
                .0
                .iter()
                .map(|(n, c)| vec![(*n).to_owned(), c.to_string()])
                .collect();
            let _ = writeln!(out, "{}", table::render(&["field", "value"], &rows));
        }
        for (name, rows) in &self.tables {
            let mut headers: Vec<&str> = Vec::new();
            for (n, _) in rows.iter().flat_map(|r| &r.0) {
                if !headers.contains(n) {
                    headers.push(n);
                }
            }
            let cells: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    let cell = |h: &&str| r.get(h).map_or_else(String::new, ToString::to_string);
                    headers.iter().map(cell).collect()
                })
                .collect();
            let _ = writeln!(out, "{name}:\n{}", table::render(&headers, &cells));
        }
        for line in &self.text {
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// The report as one JSON object: the stamp (`experiment` as `name`
    /// upper-cased, `host_cores`, `profile`, `commit`, `scale`, `smoke`),
    /// the top-level fields, then one array per table.
    #[must_use]
    pub fn to_json(&self, name: &str, smoke: bool) -> String {
        let mut out = String::from("{");
        stamp(name, &self.scale, smoke).write_json(&mut out);
        if !self.fields.0.is_empty() {
            out.push(',');
            self.fields.write_json(&mut out);
        }
        for (table, rows) in &self.tables {
            let _ = write!(out, ",\"{}\":[", obs::json_escape(table));
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                row.write_json(&mut out);
                out.push('}');
            }
            out.push(']');
        }
        out.push_str("}\n");
        out
    }

    /// Writes [`Report::to_json`] to `BENCH_<name>.json`: at the
    /// workspace root for a full run, under `target/smoke/` for a smoke
    /// run, so a smoke run never touches a committed artifact.
    pub fn emit(&self, name: &str, smoke: bool) -> std::io::Result<PathBuf> {
        let dir = if smoke {
            workspace_root().join("target").join("smoke")
        } else {
            workspace_root().to_path_buf()
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, self.to_json(name, smoke))?;
        Ok(path)
    }
}

/// The repository root this crate was built from.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// What makes an artifact comparable across hosts and commits: the
/// experiment, host cores, build profile, commit (`git describe --always
/// --dirty`, or `unknown`), scale, and whether it was a smoke run.
fn stamp(name: &str, scale: &str, smoke: bool) -> Row {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Row::new()
        .cell("experiment", name.to_uppercase())
        .cell("host_cores", cores)
        .cell("profile", profile)
        .cell("commit", commit)
        .cell("scale", scale)
        .cell("smoke", smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("T: sample");
        r.scale = "3 courses".to_owned();
        r.fields = Row::new()
            .cell("courses", 3usize)
            .cell("members", Cell::list(["A", "B\"C"]))
            .cell("ok", true);
        r.tables.push((
            "rows",
            vec![
                Row::new().cell("q", "x").cell("ns", Cell::Num(1.26, 1)),
                Row::new()
                    .cell("q", "y")
                    .cell("ns", Cell::Num(f64::INFINITY, 1))
                    .cell("extra", 7u64),
            ],
        ));
        r.text.push("a trace".to_owned());
        r
    }

    #[test]
    fn json_carries_stamp_fields_and_tables() {
        let json = sample().to_json("b0", true);
        assert!(
            json.starts_with("{\"experiment\":\"B0\",\"host_cores\":"),
            "{json}"
        );
        for key in ["\"profile\":", "\"commit\":", "\"scale\":\"3 courses\""] {
            assert!(json.contains(key), "{key}: {json}");
        }
        assert!(json.contains("\"smoke\":true,\"courses\":3,"), "{json}");
        assert!(
            json.contains("\"members\":[\"A\",\"B\\\"C\"],\"ok\":true"),
            "{json}"
        );
        // Decimals are the cell's own; a non-finite quantity is null.
        assert!(
            json.contains(
                ",\"rows\":[{\"q\":\"x\",\"ns\":1.3},{\"q\":\"y\",\"ns\":null,\"extra\":7}]}"
            ),
            "{json}"
        );
        assert!(!json.contains("a trace"), "text is terminal-only");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn render_prints_the_union_of_columns() {
        let text = sample().render(false);
        assert!(text.contains("==== T: sample ===="));
        assert!(text.contains("scale: 3 courses (full mode)"));
        assert!(text.contains("members  [A, B\"C]"), "{text}");
        assert!(text.contains("q  ns   extra"), "{text}");
        assert!(text.contains("y  inf  7"), "{text}");
        assert!(text.trim_end().ends_with("a trace"));
    }

    #[test]
    fn accessors_read_cells_by_name() {
        let r = sample();
        assert_eq!(r.fields.int("courses"), 3);
        assert_eq!(r.table("rows")[0].num("ns"), 1.26);
        assert_eq!(r.table("rows")[1].num("extra"), 7.0);
        assert_eq!(r.table("rows")[1].text("q"), "y");
        assert!(r.fields.get("missing").is_none());
    }
}

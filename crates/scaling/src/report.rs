//! Plain-text tables and the host stamp of every artifact.

use dns_json::Json;

/// A simple right-aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .zip(width)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Cores of the host; a bench row using more threads than this is
/// `oversubscribed` and its timings measure the scheduler.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block a `BENCH_*.json` artifact is stamped with — a timing
/// means nothing without the machine it was taken on:
/// `{"cpu": "...", "nproc": N, "rustc": "..."}` (`unknown` where the
/// host does not say). Asked once per process (`rustc -V` is a spawn).
pub fn host_json() -> Json {
    static HOST: std::sync::OnceLock<Json> = std::sync::OnceLock::new();
    HOST.get_or_init(|| {
        let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        });
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        let unknown = || "unknown".to_string();
        Json::obj()
            .put("nproc", Json::num(nproc() as f64))
            .put("cpu", Json::str(cpu.unwrap_or_else(unknown)))
            .put("rustc", Json::str(rustc.unwrap_or_else(unknown)))
            .build()
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bbb"]);
        t.row(vec!["1", "2"]).row(vec!["10", "20000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbb"));
        assert!(lines[3].ends_with("20000"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        Table::new(vec!["a"]).row(vec!["1", "2"]);
    }
}

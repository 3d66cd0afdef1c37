//! The host block stamped on every output: a timing means nothing
//! without the core count it was taken on.

use dns_json::Json;

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD` of the enclosing checkout, read from `.git` directly (the
/// driver's checkout has none: "unknown").
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

impl Host {
    pub fn detect() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc,
            commit: commit(),
        }
    }

    pub fn to_json(&self, seed: u64) -> Json {
        Json::obj()
            .put("nproc", Json::num(self.nproc as f64))
            .put("cpu", Json::str(&self.cpu))
            .put("rustc", Json::str(&self.rustc))
            .put("commit", Json::str(&self.commit))
            .put("seed", Json::num(seed as f64))
            .build()
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

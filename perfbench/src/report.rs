//! Result rows: metrics, output checks, and the process facts every row
//! records.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Output checks: how many ran and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn result(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failures.push(e);
        }
    }

    pub fn error_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Per-layer metrics of calls only this workload makes: printed and
    /// kept in the result row, but not in the result line, whose metric
    /// set is the same on every workload.
    pub extra: Vec<Metric>,
    pub checks: Checks,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit `f64` holds.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how this row was produced: git revision, toolchain, host
/// and the exact command line, as JSON object fields.
pub fn provenance(workload: &str, seed: u64, traced: bool) -> String {
    // Only ask git inside a checkout root: from an exported tree it would
    // walk up into whatever repository happens to enclose it.
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let command: Vec<String> = std::env::args().collect();
    format!(
        "\"workload\":{},\"seed\":{seed},\"trace\":{},\"git_rev\":{},\"rustc\":{},\"nproc\":{nproc},\"kernel\":{},\"command\":{}",
        json_str(workload),
        u8::from(traced),
        json_str(&git_rev),
        json_str(&rustc),
        json_str(&kernel),
        json_str(&command.join(" ")),
    )
}

/// The `metrics` object of a result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(0.1), "0.1");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "null");
        let m = metrics_json(&[metric("x_ms", "ms", 1.5)]);
        assert_eq!(m, "{\"x_ms\":{\"value\":1.5,\"unit\":\"ms\"}}");
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || "never".into());
        c.result(Err("bad".into()));
        assert_eq!(c.attempted, 2);
        assert_eq!(c.failures, vec!["bad".to_string()]);
        assert_eq!(c.error_ratio(), 0.5);
    }
}

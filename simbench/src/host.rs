//! What the host looks like and what the process costs it: the
//! fingerprint printed next to every result (so numbers from different
//! machines are never compared as equals), and the `/proc` readings the
//! memory and CPU metrics come from.

use std::process::Command;

use serde_json::Value;

/// Linux reports `utime`/`stime` in clock ticks of this rate (`USER_HZ`,
/// fixed at 100 on every mainstream architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// Reads a `kB` field (e.g. `VmHWM`) of `/proc/self/status`, in bytes.
fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map(|kib| kib * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), bytes.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM").unwrap_or(0)
}

/// Current resident set of this process (`VmRSS`), bytes.
#[must_use]
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS").unwrap_or(0)
}

/// User + system CPU seconds this process (all its threads, live and
/// exited) has consumed.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Git revision of the source tree, when it is a git checkout.
    pub git_rev: String,
    /// One-minute load average when the benchmark started.
    pub load_avg_1m: f64,
}

impl Fingerprint {
    /// Takes the fingerprint of the current host.
    #[must_use]
    pub fn take() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let load_avg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|t| t.split_whitespace().next()?.parse().ok())
            .unwrap_or(-1.0);
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            load_avg_1m,
        }
    }

    /// The fingerprint as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let text = |s: &str| Value::String(s.to_string());
        Value::Object(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("cpu_model".into(), text(&self.cpu_model)),
            ("rustc".into(), text(&self.rustc)),
            ("profile".into(), text(self.profile)),
            ("git_rev".into(), text(&self.git_rev)),
            ("load_avg_1m".into(), Value::F64(self.load_avg_1m)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        let _touch = vec![1u8; 1 << 20];
        // Read the current set first: other tests allocate concurrently,
        // and only the high-water mark read afterwards must cover it.
        let rss = rss_bytes();
        assert!(rss > 0);
        assert!(peak_rss_bytes() >= rss);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn fingerprint_serializes_every_field() {
        let json = Fingerprint {
            nproc: 2,
            cpu_model: "Model \"X\"".into(),
            rustc: "rustc 1.0".into(),
            profile: "release",
            git_rev: "abc".into(),
            load_avg_1m: 0.5,
        }
        .to_json();
        assert_eq!(
            serde_json::to_string(&json).unwrap(),
            "{\"nproc\":2,\"cpu_model\":\"Model \\\"X\\\"\",\"rustc\":\"rustc 1.0\",\
             \"profile\":\"release\",\"git_rev\":\"abc\",\"load_avg_1m\":0.5}"
        );
    }
}

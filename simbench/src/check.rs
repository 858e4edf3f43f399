//! Output checks and failure accounting.
//!
//! Every timed run is checked: its summary must hash to the workload's
//! pinned digest (at the default seed only), hold the summary's own
//! arithmetic, and leave no platform-invariant violation behind. Across
//! the runs of one invocation, summaries and exact counts must repeat.
//! Runs that fail a check count every one of their arrivals as failed.

use simdc_workload::ScenarioSummary;

use crate::record::Record;

/// FNV-1a 64-bit — the same dependency-free digest the repository's
/// byte-identity tests pin summaries with.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of a summary's JSON serialization.
#[must_use]
pub fn summary_digest(summary: &ScenarioSummary) -> u64 {
    let json = serde_json::to_string(summary).expect("summary serialization is infallible");
    fnv1a(json.as_bytes())
}

/// Checks one run's summary: the pinned digest when one applies, and the
/// task accounting every drained run must satisfy.
#[must_use]
pub fn summary_problems(summary: &ScenarioSummary, pinned: Option<u64>) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(expected) = pinned {
        let digest = summary_digest(summary);
        if digest != expected {
            problems.push(format!(
                "summary digest {digest} differs from the pinned {expected}"
            ));
        }
    }
    if summary.submitted + summary.rejected != summary.arrivals {
        problems.push(format!(
            "submitted {} + rejected {} != arrivals {}",
            summary.submitted, summary.rejected, summary.arrivals
        ));
    }
    if summary.completed + summary.failed != summary.submitted {
        problems.push(format!(
            "completed {} + failed {} != submitted {}",
            summary.completed, summary.failed, summary.submitted
        ));
    }
    problems
}

/// Compares a run with the invocation's reference run: same summary
/// bytes, same exact counts.
#[must_use]
pub fn repeat_problems(reference: &Record, run: &Record, what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if run.digest != reference.digest {
        problems.push(format!(
            "{what}: summary digest {} differs from the first run's {}",
            run.digest, reference.digest
        ));
    }
    for (name, value) in &reference.counts {
        if let Some(other) = run.counts.get(name) {
            if other != value {
                problems.push(format!(
                    "{what}: count {name} = {other} differs from the first run's {value}"
                ));
            }
        }
    }
    problems
}

/// Tasks attempted and failed over an invocation's timed runs —
/// `failed_frac` is their ratio.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Task arrivals over all timed runs.
    pub attempted: u64,
    /// Rejected and failed tasks, plus every arrival of a run that failed
    /// its output check.
    pub failed: u64,
}

impl Tally {
    /// Accounts one timed run.
    pub fn add_run(&mut self, arrivals: u64, rejected: u64, failed_tasks: u64, output_ok: bool) {
        self.attempted += arrivals;
        self.failed += if output_ok {
            (rejected + failed_tasks).min(arrivals)
        } else {
            arrivals
        };
    }

    /// Accounts a run that died before reporting: one attempt, failed.
    pub fn add_lost_run(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Failed share of attempts (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn failed_frac_counts_rejections_failures_and_bad_runs() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        tally.add_run(100, 0, 0, true);
        assert_eq!(tally.failed_frac(), 0.0);
        tally.add_run(100, 2, 3, true);
        assert_eq!((tally.attempted, tally.failed), (200, 5));
        // A run failing its output check loses all of its arrivals.
        tally.add_run(50, 0, 0, false);
        assert_eq!((tally.attempted, tally.failed), (250, 55));
        tally.add_lost_run();
        assert_eq!((tally.attempted, tally.failed), (251, 56));
        assert!((tally.failed_frac() - 56.0 / 251.0).abs() < 1e-15);
    }

    #[test]
    fn repeats_must_match_digest_and_counts() {
        let mut a = Record {
            digest: 7,
            ..Record::default()
        };
        a.count("sim.events", 10);
        let mut b = a.clone();
        assert!(repeat_problems(&a, &b, "run 2").is_empty());
        b.count("sim.events", 11);
        b.digest = 8;
        assert_eq!(repeat_problems(&a, &b, "run 2").len(), 2);
    }
}

//! What one measured process reports back to its parent, and the line
//! protocol it travels in over the child's standard output.
//!
//! Each line is `<kind> <name> <value>` (`metric`, `count`) or
//! `<kind> <value>` (`digest`, `problem`); anything else a child prints is
//! ignored, so diagnostics never corrupt a record.

use std::collections::BTreeMap;

/// One run's measurements, exact counts and output-check verdict.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Record {
    /// Timings and other measured values, by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Exact counts from the run's public post-run state; a given
    /// (workload, seed) must reproduce them on every run.
    pub counts: BTreeMap<String, u64>,
    /// FNV-1a digest of the run's summary JSON.
    pub digest: u64,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Record {
    /// Records a measured value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Records an output-check failure.
    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }

    /// A count that every record carries (zero when absent).
    #[must_use]
    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Serializes the record in the line protocol.
    #[must_use]
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        for (name, value) in &self.counts {
            out.push_str(&format!("count {name} {value}\n"));
        }
        out.push_str(&format!("digest {}\n", self.digest));
        for problem in &self.problems {
            out.push_str(&format!("problem {}\n", problem.replace('\n', " ")));
        }
        out
    }

    /// Parses a child's output.
    ///
    /// # Errors
    ///
    /// Returns a message when no `digest` line is present (the child did
    /// not finish) or a value does not parse.
    pub fn parse(text: &str) -> Result<Record, String> {
        let mut record = Record::default();
        let mut saw_digest = false;
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed record line `{line}`");
            match kind {
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    let value: f64 = value.parse().map_err(|_| bad())?;
                    record.metric(name, value);
                }
                "count" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    let value: u64 = value.parse().map_err(|_| bad())?;
                    record.count(name, value);
                }
                "digest" => {
                    record.digest = rest.parse().map_err(|_| bad())?;
                    saw_digest = true;
                }
                "problem" => record.problem(rest),
                _ => {}
            }
        }
        if saw_digest {
            Ok(record)
        } else {
            Err("child reported no digest (run did not finish)".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut r = Record::default();
        r.metric("run_s", 1.234_567_890_123);
        r.metric("core.plan_ms_p95", 0.1);
        r.count("sim.events", 1081);
        r.digest = u64::MAX;
        r.problem("digest mismatch\nsecond line");
        let parsed = Record::parse(&format!("noise\n{}", r.to_lines())).unwrap();
        assert_eq!(parsed.metrics, r.metrics);
        assert_eq!(parsed.counts, r.counts);
        assert_eq!(parsed.digest, u64::MAX);
        assert_eq!(
            parsed.problems,
            vec!["digest mismatch second line".to_string()]
        );
    }

    #[test]
    fn a_record_without_digest_is_an_unfinished_run() {
        assert!(Record::parse("metric run_s 1.0\n").is_err());
        assert!(Record::parse("count x notanumber\ndigest 1\n").is_err());
    }
}

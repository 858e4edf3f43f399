//! Shared plumbing for the SimDC experiment harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see `DESIGN.md` → "Experiment index"); this library holds
//! the bits they share: CLI parsing, result serialization and small
//! text-rendering helpers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use serde::Serialize;
use simdc_workload::spec::MAX_THREADS;

pub mod exp;

/// Common command-line options of every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Root RNG seed.
    pub seed: u64,
    /// Scale experiment knobs down for smoke testing.
    pub quick: bool,
    /// Where to write the JSON result (default `results/<name>.json`).
    pub out_dir: PathBuf,
    /// Phone-fleet size override for the scale experiments (`--fleet N`);
    /// experiments without a fleet knob ignore it.
    pub fleet: Option<usize>,
    /// Largest worker-thread count for the scale experiment's sweep
    /// (`--threads N`); experiments without a thread axis ignore it.
    pub threads: Option<usize>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 0x51AD_C0DE,
            quick: false,
            out_dir: PathBuf::from("results"),
            fleet: None,
            threads: None,
        }
    }
}

/// Usage text of every experiment binary, printed by `--help` and after
/// an argument error.
pub const USAGE: &str = "\
usage: EXPERIMENT [OPTIONS]

options:
  --seed N      root RNG seed (default 1370341598)
  --quick       scale experiment knobs down for smoke testing
  --out DIR     directory for the JSON results (default results)
  --fleet N     phone-fleet size for the scale experiments
  --threads N   largest worker-thread count for the scale sweep
  -h, --help    print this help";

/// Why [`ExpOptions::parse`] returned no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h` was given.
    Help,
    /// The arguments are malformed; the message says how.
    Invalid(String),
}

impl ExpOptions {
    /// Parses `--seed N`, `--quick`, `--out DIR`, `--fleet N`,
    /// `--threads N` and `--help` from the arguments after the program
    /// name.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Help`] when help is asked for, and
    /// [`ArgsError::Invalid`] for an unknown flag, a missing or
    /// non-integer value, `--fleet 0`, or `--threads` above
    /// [`MAX_THREADS`].
    pub fn parse<I>(args: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        fn value(flag: &str, next: Option<String>) -> Result<String, ArgsError> {
            next.ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))
        }
        fn integer<T: std::str::FromStr>(flag: &str, next: Option<String>) -> Result<T, ArgsError> {
            let v = value(flag, next)?;
            v.parse()
                .map_err(|_| ArgsError::Invalid(format!("{flag} must be an integer, got '{v}'")))
        }
        let mut opts = ExpOptions::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "-h" | "--help" => return Err(ArgsError::Help),
                "--seed" => opts.seed = integer(&arg, args.next())?,
                "--quick" => opts.quick = true,
                "--out" => opts.out_dir = PathBuf::from(value(&arg, args.next())?),
                "--fleet" => match integer(&arg, args.next())? {
                    0 => return Err(ArgsError::Invalid("--fleet must be at least 1".into())),
                    phones => opts.fleet = Some(phones),
                },
                "--threads" => match integer(&arg, args.next())? {
                    threads if threads > MAX_THREADS => {
                        return Err(ArgsError::Invalid(format!(
                            "--threads must be at most {MAX_THREADS}, got {threads}"
                        )))
                    }
                    threads => opts.threads = Some(threads),
                },
                other => return Err(ArgsError::Invalid(format!("unknown argument '{other}'"))),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments with [`ExpOptions::parse`]. On
    /// `--help` it prints [`USAGE`] and exits with status 0; on a bad
    /// argument, including one that is not UTF-8, it prints the error and
    /// [`USAGE`] to stderr and exits with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        let parsed = std::env::args_os()
            .skip(1)
            .map(|arg| {
                arg.into_string()
                    .map_err(|arg| ArgsError::Invalid(format!("argument {arg:?} is not UTF-8")))
            })
            .collect::<Result<Vec<String>, _>>()
            .and_then(ExpOptions::parse);
        match parsed {
            Ok(opts) => opts,
            Err(ArgsError::Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(ArgsError::Invalid(msg)) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Writes `value` as pretty JSON to `<out_dir>/<name>.json` and returns
    /// the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O or serialization failure (experiment binaries want
    /// loud failures).
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create results directory");
        let path = self.out_dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize result");
        std::fs::write(&path, json).expect("write result file");
        path
    }
}

/// Renders a text table with a header row (every experiment binary prints
/// its paper-table analog this way).
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with fixed decimals for table cells.
#[must_use]
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        let lens: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{table}");
        assert!(table.contains("| alpha | 1     |"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.12349, 3), "0.123");
        assert_eq!(f(2.0, 1), "2.0");
    }

    fn parse(args: &[&str]) -> Result<ExpOptions, ArgsError> {
        ExpOptions::parse(args.iter().copied())
    }

    fn invalid(args: &[&str]) -> String {
        match parse(args) {
            Err(ArgsError::Invalid(msg)) => msg,
            other => panic!("expected an argument error for {args:?}, got {other:?}"),
        }
    }

    #[test]
    fn parse_reads_every_flag() {
        let opts = parse(&[
            "--seed",
            "7",
            "--quick",
            "--out",
            "o",
            "--fleet",
            "100",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(opts.seed, 7);
        assert!(opts.quick);
        assert_eq!(opts.out_dir, PathBuf::from("o"));
        assert_eq!(opts.fleet, Some(100));
        assert_eq!(opts.threads, Some(4));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.seed, ExpOptions::default().seed);
        assert!(!defaults.quick);
    }

    #[test]
    fn parse_reports_help() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(parse(&["--quick", "-h"]).unwrap_err(), ArgsError::Help);
        assert!(USAGE.contains(&format!("{}", ExpOptions::default().seed)));
    }

    #[test]
    fn parse_rejects_bad_arguments() {
        assert_eq!(invalid(&["--bogus"]), "unknown argument '--bogus'");
        assert_eq!(invalid(&["7"]), "unknown argument '7'");
        for flag in ["--seed", "--out", "--fleet", "--threads"] {
            assert_eq!(invalid(&[flag]), format!("{flag} needs a value"));
        }
        for flag in ["--seed", "--fleet", "--threads"] {
            assert_eq!(
                invalid(&[flag, "x1"]),
                format!("{flag} must be an integer, got 'x1'")
            );
            assert_eq!(
                invalid(&[flag, "-3"]),
                format!("{flag} must be an integer, got '-3'")
            );
        }
        assert_eq!(invalid(&["--fleet", "0"]), "--fleet must be at least 1");
        assert_eq!(
            invalid(&["--threads", "65"]),
            format!("--threads must be at most {MAX_THREADS}, got 65")
        );
        assert_eq!(parse(&["--threads", "64"]).unwrap().threads, Some(64));
        assert_eq!(parse(&["--fleet", "1"]).unwrap().fleet, Some(1));
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join(format!("simdc-bench-test-{}", std::process::id()));
        let opts = ExpOptions {
            out_dir: dir.clone(),
            ..ExpOptions::default()
        };
        let path = opts.write_json("probe", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_dir_all(dir).ok();
    }
}

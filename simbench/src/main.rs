//! The SimDC benchmark.
//!
//! ```text
//! simbench --workload <fleet_1m|fedavg_poisson|cloud_burst|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation measures one workload (or all three, one after the
//! other) for `--seconds` seconds as a closed loop with one client: it
//! starts a fresh process per run, waits for its record, and starts the
//! next. Inside each run, task arrivals are an open loop on virtual time.
//! With `--trace 0` it reports the end-to-end metrics (`run_s`,
//! `setup_s`, `peak_rss_mb`) as medians; with `--trace 1` it alternates
//! untraced and traced processes and reports the per-layer metrics, the
//! exact counts, `trace.coverage` and the tracing overhead. Every run's
//! output is checked; the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`), and the exit code is
//! non-zero when any check failed.

// Wall-clock timing is this harness's product; no timing value feeds
// back into a simulation.
#![allow(clippy::disallowed_methods)]

mod check;
mod host;
mod probe;
mod record;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use check::{repeat_problems, Tally};
use record::Record;
use serde_json::Value;
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: simbench --workload <fleet_1m|fedavg_poisson|cloud_burst|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Runs after which an invocation ends its last cycle, however short
/// the runs are.
const MAX_RUNS: usize = 400;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer timings and ratios (`--trace 1`), medians over the traced
/// processes: name and unit.
const LAYER_TIMINGS: [(&str, &str); 21] = [
    ("data.generate_s", "s"),
    ("phone.segment_build_s", "s"),
    ("phone.join_s", "s"),
    ("phone.drop_s", "s"),
    ("phone.bytes_per_phone", "B"),
    ("phone.commit_s", "s"),
    ("workload.arrivals_s", "s"),
    ("workload.templates_s", "s"),
    ("workload.injectors_s", "s"),
    ("core.platform_new_s", "s"),
    ("core.submit_s", "s"),
    ("core.plan_s", "s"),
    ("core.plan_ms_p50", "ms"),
    ("core.plan_ms_p95", "ms"),
    ("core.codec_s", "s"),
    ("ml.train_s", "s"),
    ("ml.aggregate_s", "s"),
    ("ml.evaluate_s", "s"),
    ("cluster.release_s", "s"),
    ("host.cpu_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Exact counts (`--trace 1`), identical on every run of a workload.
const LAYER_COUNTS: [&str; 9] = [
    "sim.arrivals",
    "sim.tasks_completed",
    "sim.events",
    "ml.device_updates",
    "core.storage_bytes",
    "core.completion_events",
    "phone.phones",
    "cluster.nodes_booted",
    "cluster.peak_nodes",
];

/// Which process kind a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untraced,
    Traced,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<Mode>,
    threads: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        child: None,
        threads: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--threads" => parsed.threads = Some(number(value()?)? as usize),
            "--child" => {
                parsed.child = Some(match value()?.as_str() {
                    "untraced" => Mode::Untraced,
                    "traced" => Mode::Traced,
                    other => return Err(format!("unknown child mode `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && workloads::find(&parsed.workload).is_none() {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

/// Runs one measured process of `w` and parses its record.
fn spawn_child(
    mode: Mode,
    w: &Workload,
    seed: u64,
    threads: Option<usize>,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.as_str(), "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(threads) = threads {
        cmd.args(["--threads", &threads.to_string()]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{} {} run did not start: {e}", w.name, mode.as_str()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} run exited with {}",
            w.name,
            mode.as_str(),
            out.status
        ));
    }
    Record::parse(&String::from_utf8_lossy(&out.stdout))
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count, and the quartiles when there are at least two.
    samples: usize,
    quartiles: Option<[f64; 3]>,
}

impl Metric {
    fn from_samples(name: &str, unit: &'static str, samples: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            value: stats::median(samples).unwrap_or(0.0),
            unit,
            samples: samples.len(),
            quartiles: stats::quartiles(samples),
        }
    }

    fn exact(name: &str, value: u64) -> Self {
        Metric {
            name: name.to_string(),
            value: value as f64,
            unit: "count",
            samples: 1,
            quartiles: None,
        }
    }
}

/// The result of benchmarking one workload.
#[derive(Debug)]
struct Outcome {
    tally: Tally,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn samples(records: &[Record], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

/// Runs of an invocation come in whole cycles over the workload's fixed
/// sub-seeds, so faster and slower builds measure the same arrival
/// samples in the same proportions. Every sub-seed runs at least this
/// often (untraced and traced runs both count), so each is checked
/// against its first run.
const MIN_RUNS_PER_SEED: usize = 2;
/// Runs that die before reporting after which an invocation stops; its
/// result has failed either way.
const MAX_LOST: usize = 3;

/// Measures `w` for `seconds`, checking every run. `spawn` makes one
/// measured process (mode, workload, scenario seed, thread override).
fn bench(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spawn: &mut impl FnMut(Mode, &Workload, u64, Option<usize>) -> Result<Record, String>,
) -> Outcome {
    let mut problems = Vec::new();
    let mut tally = Tally::default();

    // Once per invocation, outside the timed runs: `seed` again, at the
    // workload's parity thread count when it has one. Its summary and
    // counts must repeat the timed runs' exactly.
    let repeat = spawn(Mode::Untraced, w, seed, w.parity_threads);

    // With tracing, each sub-seed runs untraced then traced, so the
    // overhead compares like with like.
    let modes: &[Mode] = if trace {
        &[Mode::Untraced, Mode::Traced]
    } else {
        &[Mode::Untraced]
    };
    let run_seeds = w.run_seeds(seed);
    // The first record of each sub-seed; later runs must repeat it.
    let mut references: Vec<Option<Record>> = vec![None; run_seeds.len()];
    let mut untraced: Vec<Record> = Vec::new();
    let mut traced: Vec<Record> = Vec::new();
    let mut runs = 0;
    let mut lost = 0;
    let window = Instant::now();
    let min_cycles = MIN_RUNS_PER_SEED.div_ceil(modes.len());
    'cycles: for cycle in 0.. {
        if cycle >= min_cycles && (window.elapsed().as_secs() >= seconds || runs >= MAX_RUNS) {
            break;
        }
        for (index, &run_seed) in run_seeds.iter().enumerate() {
            for &mode in modes {
                runs += 1;
                let label = format!("{} run {runs} ({}, seed {run_seed})", w.name, mode.as_str());
                let record = match spawn(mode, w, run_seed, None) {
                    Ok(record) => record,
                    Err(err) => {
                        tally.add_lost_run();
                        problems.push(format!("{label}: {err}"));
                        lost += 1;
                        if lost >= MAX_LOST {
                            break 'cycles;
                        }
                        continue;
                    }
                };
                let mut run_problems: Vec<String> = record
                    .problems
                    .iter()
                    .map(|p| format!("{label}: {p}"))
                    .collect();
                match &references[index] {
                    Some(first) => run_problems.extend(repeat_problems(first, &record, &label)),
                    None => references[index] = Some(record.clone()),
                }
                tally.add_run(
                    record.get_count("sim.arrivals"),
                    record.get_count("sim.rejected"),
                    record.get_count("sim.failed"),
                    run_problems.is_empty(),
                );
                problems.extend(run_problems);
                match mode {
                    Mode::Untraced => untraced.push(record),
                    Mode::Traced => traced.push(record),
                }
            }
        }
    }

    let reference = references[0].as_ref();
    let label = match w.parity_threads {
        Some(threads) => format!("{} repeat at threads={threads}", w.name),
        None => format!("{} repeat", w.name),
    };
    match repeat {
        Ok(record) => {
            problems.extend(record.problems.iter().map(|p| format!("{label}: {p}")));
            if let Some(first) = reference {
                problems.extend(repeat_problems(first, &record, &label));
            }
        }
        Err(err) => problems.push(format!("{label}: {err}")),
    }

    let mut metrics = Vec::new();
    if trace {
        for (name, unit) in LAYER_TIMINGS {
            metrics.push(Metric::from_samples(name, unit, &samples(&traced, name)));
        }
        let traced_run = stats::median(&samples(&traced, "run_s")).unwrap_or(0.0);
        let untraced_run = stats::median(&samples(&untraced, "run_s")).unwrap_or(0.0);
        metrics.push(Metric {
            name: "trace.overhead_s".into(),
            value: traced_run - untraced_run,
            unit: "s",
            samples: traced.len().min(untraced.len()),
            quartiles: None,
        });
        // Exact counts are those of the invocation seed itself.
        for name in LAYER_COUNTS {
            metrics.push(Metric::exact(
                name,
                reference.map_or(0, |r| r.get_count(name)),
            ));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push(Metric::from_samples(name, unit, &samples(&untraced, name)));
        }
    }
    Outcome {
        tally,
        problems,
        metrics,
    }
}

/// Prints one workload's human-readable report.
fn print_outcome(w: &Workload, outcome: &Outcome) {
    println!("workload {}: {} [layers: {}]", w.name, w.why, w.layers);
    for m in &outcome.metrics {
        let spread = match m.quartiles {
            Some([q1, _, q3]) if m.value != 0.0 => format!(
                "  q1 {q1:.6} q3 {q3:.6} spread {:.1}%",
                (q3 - q1) / m.value.abs() * 100.0
            ),
            _ => String::new(),
        };
        println!(
            "  {:<24} {:>16.6} {:<6} n={}{spread}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<24} {:>16.6} {:<6} ({} of {} tasks)",
        "failed_frac",
        outcome.tally.failed_frac(),
        "ratio",
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
}

/// A JSON number for `value` (non-finite values become 0, where the
/// serializer would write `null`).
fn json_number(value: f64) -> Value {
    Value::F64(if value.is_finite() { value } else { 0.0 })
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
fn result_json(correct: bool, tally: Tally, metrics: &[(String, f64, &str)]) -> Value {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let metric = vec![
                ("value".to_string(), json_number(*value)),
                ("unit".to_string(), Value::String((*unit).to_string())),
            ];
            (name.clone(), Value::Object(metric))
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(tally.attempted.max(1))),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// Benchmarks each selected workload in turn, printing its report, and
/// returns whether every output check passed with the result object.
fn bench_all(
    selected: &[&Workload],
    args: &Args,
    spawn: &mut impl FnMut(Mode, &Workload, u64, Option<usize>) -> Result<Record, String>,
) -> (bool, Value) {
    let prefix = selected.len() > 1;
    let mut correct = true;
    let mut tally = Tally::default();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for w in selected {
        let outcome = bench(w, args.seed, args.seconds, args.trace, spawn);
        print_outcome(w, &outcome);
        correct &= outcome.problems.is_empty();
        tally.attempted += outcome.tally.attempted;
        tally.failed += outcome.tally.failed;
        for m in outcome.metrics {
            let name = if prefix {
                format!("{}.{}", w.name, m.name)
            } else {
                m.name
            };
            metrics.push((name, m.value, m.unit));
        }
    }
    (correct, result_json(correct, tally, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("simbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(mode) = args.child {
        let w = workloads::find(&args.workload).expect("validated by parse_args");
        let record = match mode {
            Mode::Untraced => probe::untraced(w, args.seed, args.threads),
            Mode::Traced => probe::traced(w, args.seed, args.threads),
        };
        print!("{}", record.to_lines());
        return ExitCode::SUCCESS;
    }

    let fingerprint = host::Fingerprint::take();
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    let (correct, result) = bench_all(&selected, &args, &mut spawn_child);
    let json = |v: &Value| serde_json::to_string(v).expect("JSON values always serialize");
    println!(
        "host {} seed {} seconds {} trace {}",
        json(&fingerprint.to_json()),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "cloud_burst",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "cloud_burst");
        assert_eq!((args.seed, args.seconds, args.trace), (3, 20, true));
        assert!(parse_args(&strings(&["--workload", "bogus"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--extra"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 10,
            failed: 1,
        };
        let json =
            serde_json::to_string(&result_json(false, tally, &[("run_s".into(), 1.25, "s")]));
        assert_eq!(
            json.unwrap(),
            "{\"correct\":false,\"attempted\":10,\"failed\":1,\
             \"metrics\":{\"run_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let empty = result_json(true, Tally::default(), &[("x".into(), f64::NAN, "s")]);
        let empty = serde_json::to_string(&empty).unwrap();
        assert!(empty.contains("\"attempted\":1") && empty.contains("\"value\":0"));
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 9,
            seconds: 0,
            trace,
            child: None,
            threads: None,
        }
    }

    /// A measured process that reports a correct run with fixed counts.
    fn good_run(mode: Mode, _: &Workload, seed: u64, _: Option<usize>) -> Result<Record, String> {
        let mut record = Record {
            digest: seed,
            ..Record::default()
        };
        record.count("sim.arrivals", 10);
        record.metric("run_s", if mode == Mode::Traced { 2.0 } else { 1.0 });
        Ok(record)
    }

    #[test]
    fn runs_come_in_whole_cycles_over_the_fixed_sub_seeds() {
        let w = workloads::find("fedavg_poisson").unwrap();
        let mut seen: Vec<(Mode, u64)> = Vec::new();
        let outcome = bench(w, 9, 0, true, &mut |mode, w, seed, threads| {
            seen.push((mode, seed));
            good_run(mode, w, seed, threads)
        });
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        // The untimed repeat, then one cycle of (untraced, traced) pairs
        // over every sub-seed.
        let seeds = w.run_seeds(9);
        assert_eq!(seen.len(), 1 + seeds.len() * 2);
        assert_eq!(seen[0], (Mode::Untraced, 9));
        for (pair, seed) in seen[1..].chunks(2).zip(&seeds) {
            assert_eq!(pair, [(Mode::Untraced, *seed), (Mode::Traced, *seed)]);
        }
        let overhead = outcome
            .metrics
            .iter()
            .find(|m| m.name == "trace.overhead_s");
        assert_eq!(overhead.unwrap().value, 1.0);

        // Untraced only: whole cycles, each sub-seed run twice.
        seen.clear();
        bench(w, 9, 0, false, &mut |mode, w, seed, threads| {
            seen.push((mode, seed));
            good_run(mode, w, seed, threads)
        });
        assert_eq!(seen.len(), 1 + seeds.len() * MIN_RUNS_PER_SEED);
        for seed in &seeds {
            let n = seen[1..].iter().filter(|run| run.1 == *seed).count();
            assert_eq!(n, MIN_RUNS_PER_SEED, "seed {seed}");
        }
    }

    #[test]
    fn a_child_that_always_dies_fails_the_invocation_and_ends_it() {
        let w = workloads::find("cloud_burst").unwrap();
        let mut calls = 0;
        let (correct, result) = bench_all(&[w], &args("cloud_burst", false), &mut |_, _, _, _| {
            calls += 1;
            Err("killed by signal 9".to_string())
        });
        assert!(!correct);
        // The untimed repeat, then MAX_LOST timed runs.
        assert_eq!(calls, 1 + MAX_LOST);
        let json = serde_json::to_string(&result).unwrap();
        assert!(
            json.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":3,"),
            "{json}"
        );

        // Only the traced processes die: the untraced ones cannot keep the
        // invocation going.
        let (correct, _) =
            bench_all(
                &[w],
                &args("cloud_burst", true),
                &mut |mode, w, seed, t| match mode {
                    Mode::Traced => Err("panicked".to_string()),
                    Mode::Untraced => good_run(mode, w, seed, t),
                },
            );
        assert!(!correct);
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// and workloads this binary reports, in the same order.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        use serde_json::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, key: &str| -> Value {
            match v {
                Value::Object(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| panic!("missing `{key}`")),
                other => panic!("not an object: {other:?}"),
            }
        };
        let names = |section: &str| -> Vec<String> {
            match field(&doc, section) {
                Value::Array(items) => items
                    .iter()
                    .map(|item| match field(item, "name") {
                        Value::String(name) => name,
                        other => panic!("name is not a string: {other:?}"),
                    })
                    .collect(),
                other => panic!("`{section}` is not an array: {other:?}"),
            }
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let mut layer: Vec<String> = LAYER_TIMINGS
            .iter()
            .map(|(n, _)| (*n).to_string())
            .collect();
        layer.push("trace.overhead_s".into());
        layer.extend(LAYER_COUNTS.iter().map(|n| (*n).to_string()));
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}

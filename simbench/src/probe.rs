//! The measured processes. Each runs one workload once in a fresh
//! process (so `VmHWM` is that run's peak) and reports a [`Record`].
//!
//! * [`untraced`] is what a user pays: set-up (spec parse + compile,
//!   dataset generation, `Platform::new`), then one `run_detailed` plus
//!   dropping the platform it returns. Nothing else runs in the process.
//! * [`traced`] splits the same work by layer from the outside. Every
//!   span wraps a call into one layer's public functions, made by this
//!   file; nothing inside the program is instrumented. Where a layer is
//!   reachable only inside `Scenario::run`, the traced process *replays*
//!   the workload's own inputs through that layer's public entry point —
//!   the same arrival/template/injector streams, every accepted task
//!   through `TaskRunner::plan` → `commit` → `release_job` on a
//!   standalone cluster sized so every task places, and every device
//!   update through the ml and codec calls. The process then makes the
//!   real run, and its replay counts must equal the run's.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use simdc_cluster::{ClusterConfig, LogicalCluster};
use simdc_core::cloud::{decode_update, encode_update};
use simdc_core::runner::{TaskReport, TaskRunner};
use simdc_core::{Platform, PlatformConfig, Storage, TaskSpec};
use simdc_data::CtrDataset;
use simdc_ml::{evaluate, FedAvg, KernelKind, LocalTrainer, LrModel};
use simdc_phone::{PhoneDevice, PhoneMgr};
use simdc_simrt::RngStream;
use simdc_types::{DeviceId, RoundId, SimInstant, StorageKey, TaskId};
use simdc_workload::{CompiledScenario, ScenarioSummary};

use crate::check::{summary_digest, summary_problems};
use crate::host::{cpu_seconds, peak_rss_bytes, rss_bytes};
use crate::record::Record;
use crate::stats::{median, percentile};
use crate::workloads::{dataset_config, Workload};

const MIB: f64 = 1024.0 * 1024.0;

/// The top-level spans of a traced process that together make up the
/// real run's `run_s`: fleet build inside `Platform::new`, schedule
/// sampling, admission, planning (training and codec included), commit,
/// group release and the fleet drop. `trace.coverage` is their sum over
/// `run_s`; the scheduler passes and the event loop are what is left.
const RUN_SPANS: [&str; 9] = [
    "core.platform_new_s",
    "workload.arrivals_s",
    "workload.templates_s",
    "workload.injectors_s",
    "core.submit_s",
    "core.plan_s",
    "phone.commit_s",
    "cluster.release_s",
    "phone.drop_s",
];

/// Seconds since `start`.
fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Wall time per span name, kept in memory until the record is written.
#[derive(Debug, Default)]
struct Spans {
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f` inside the span `name` and adds its duration there.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, secs(start));
        out
    }

    fn add(&mut self, name: &'static str, seconds: f64) {
        *self.totals.entry(name).or_insert(0.0) += seconds;
    }

    fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

/// The platform config `run_detailed` builds with: the compiled config
/// with the scenario's cluster override applied.
fn platform_config(compiled: &CompiledScenario) -> PlatformConfig {
    let mut config = compiled.config.clone();
    if let Some(cluster) = &compiled.scenario.cluster {
        config.cluster = cluster.clone();
    }
    config
}

/// Device updates of a set of task reports: every model update a device
/// emitted, whether aggregated, late or dropped.
fn device_updates<'a>(reports: impl IntoIterator<Item = &'a TaskReport>) -> u64 {
    reports
        .into_iter()
        .flat_map(|r| &r.rounds)
        .map(|r| r.included_updates + r.stragglers + r.dropped_messages)
        .sum()
}

/// Records the exact counts of a finished run from its public state.
fn record_counts(summary: &ScenarioSummary, platform: &Platform, rec: &mut Record) {
    let reports = (1..=summary.arrivals).filter_map(|i| platform.report(TaskId(i)));
    rec.count("sim.arrivals", summary.arrivals);
    rec.count("sim.rejected", summary.rejected);
    rec.count("sim.failed", summary.failed);
    rec.count("sim.stragglers", summary.stragglers);
    rec.count("sim.tasks_completed", summary.completed);
    rec.count("sim.events", summary.events);
    rec.count("ml.device_updates", device_updates(reports));
    rec.count("core.storage_bytes", platform.storage().bytes_written());
    rec.count("core.completion_events", platform.completion_events());
    rec.count("phone.phones", platform.phones().total() as u64);
    rec.count("cluster.nodes_booted", summary.cloud.nodes_booted);
    rec.count("cluster.peak_nodes", summary.cloud.peak_nodes);
}

/// The timed run: `run_detailed` plus dropping the platform it returns.
/// The output checks run between the two, outside the timing. Records
/// `run_s`, `host.cpu_s`, the digest, the counts and any problem.
fn timed_run(
    w: &Workload,
    compiled: &CompiledScenario,
    dataset: &Arc<CtrDataset>,
    rec: &mut Record,
) {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let (summary, platform) = compiled.run_detailed(dataset);
    let ran = secs(start);
    let cpu_ran = cpu_seconds() - cpu;

    rec.digest = summary_digest(&summary);
    for problem in summary_problems(&summary, w.expected_digest(compiled.config.seed)) {
        rec.problem(problem);
    }
    for violation in platform.invariant_violations() {
        rec.problem(format!("invariant violated: {violation}"));
    }
    record_counts(&summary, &platform, rec);

    let cpu = cpu_seconds();
    let start = Instant::now();
    drop(platform);
    rec.metric("run_s", ran + secs(start));
    rec.metric("host.cpu_s", cpu_ran + cpu_seconds() - cpu);
}

/// Loads and compiles the workload, reporting a failure as a problem.
fn compile(
    w: &Workload,
    seed: u64,
    threads: Option<usize>,
    rec: &mut Record,
) -> Option<CompiledScenario> {
    match w.spec(seed, threads).and_then(|spec| spec.compile()) {
        Ok(compiled) => Some(compiled),
        Err(err) => {
            rec.problem(format!("workload {} does not compile: {err}", w.name));
            None
        }
    }
}

/// Set-up is repeated until it has taken this long in total (at least
/// [`MIN_SETUPS`] times), and its median reported.
const SETUP_BUDGET_S: f64 = 0.1;
const MIN_SETUPS: usize = 2;
const MAX_SETUPS: usize = 64;

/// One untraced process: set-up (repeated, median reported), then the
/// timed run.
#[must_use]
pub fn untraced(w: &Workload, seed: u64, threads: Option<usize>) -> Record {
    let mut rec = Record::default();
    let mut setups = Vec::new();
    let (compiled, dataset) = loop {
        let start = Instant::now();
        let Some(compiled) = compile(w, seed, threads, &mut rec) else {
            return rec;
        };
        let dataset = Arc::new(CtrDataset::generate(&dataset_config(seed)));
        let platform = Platform::new(platform_config(&compiled));
        setups.push(secs(start));
        drop(platform);
        let spent: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            break (compiled, dataset);
        }
    };
    rec.metric("setup_s", median(&setups).unwrap_or(0.0));

    timed_run(w, &compiled, &dataset, &mut rec);
    rec.metric("peak_rss_mb", peak_rss_bytes() as f64 / MIB);
    rec
}

/// One traced process: every layer replayed under its span, then the
/// real run, then the replay counts checked against the run's.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn traced(w: &Workload, seed: u64, threads: Option<usize>) -> Record {
    let mut rec = Record::default();
    let mut spans = Spans::default();
    let Some(compiled) = compile(w, seed, threads, &mut rec) else {
        return rec;
    };
    let config = platform_config(&compiled);
    let scenario = &compiled.scenario;
    let dataset = Arc::new(spans.time("data.generate_s", || {
        CtrDataset::generate(&dataset_config(seed))
    }));

    // workload: the schedules `run_detailed` pre-samples, drawn from the
    // same streams in the same fork order.
    let mut rng = RngStream::named(compiled.config.seed, &format!("scenario/{}", scenario.name));
    let offsets = spans.time("workload.arrivals_s", || {
        scenario
            .arrivals
            .sample(scenario.horizon, &mut rng.fork("arrivals"))
    });
    let specs: Vec<TaskSpec> = spans.time("workload.templates_s", || {
        let mut template_rng = rng.fork("templates");
        (0..offsets.len())
            .map(|i| {
                scenario
                    .template
                    .instantiate(TaskId(i as u64 + 1), &mut template_rng)
            })
            .collect()
    });

    // core: platform construction and admission feasibility.
    let submissions = specs.clone();
    let mut platform = spans.time("core.platform_new_s", || Platform::new(config.clone()));
    let accepted: Vec<(SimInstant, TaskSpec)> = spans.time("core.submit_s", || {
        offsets
            .iter()
            .zip(submissions)
            .filter_map(|(offset, spec)| {
                let kept = spec.clone();
                platform
                    .submit(spec, Arc::clone(&dataset))
                    .ok()
                    .map(|_| (SimInstant::EPOCH + *offset, kept))
            })
            .collect()
    });
    drop(platform);

    // phone: the fleet build `Platform::new` performs, split at its seams.
    let rss_before = rss_bytes();
    let segments = config.fleet.segments();
    let built: Vec<PhoneDevice> = spans.time("phone.segment_build_s", || {
        segments.iter().flat_map(|s| s.build(config.seed)).collect()
    });
    let mut fleet = spans
        .time("phone.join_s", || {
            PhoneMgr::from_prebuilt(built, config.poll_interval)
        })
        .expect("segment ids cannot collide");
    let phones = fleet.total().max(1) as f64;
    rec.metric(
        "phone.bytes_per_phone",
        rss_bytes().saturating_sub(rss_before) as f64 / phones,
    );
    let stragglers = spans.time("workload.injectors_s", || {
        let slowed = scenario
            .fleet
            .apply_stragglers(&mut fleet, &mut rng.fork("stragglers"));
        std::hint::black_box(scenario.fleet.sample_crashes(
            &fleet,
            scenario.horizon,
            &mut rng.fork("churn"),
        ));
        slowed
    });

    // core + phone + cluster: every accepted task planned, committed and
    // released in arrival order on a cluster with every node booted.
    let mut cluster = LogicalCluster::new(ClusterConfig {
        initial_nodes: config.cluster.max_nodes,
        ..config.cluster.clone()
    });
    let runner = TaskRunner::new(config.runner);
    let mut storage = Storage::new();
    let mut plan_ms = Vec::with_capacity(accepted.len());
    let mut planned_updates = 0u64;
    // Each committed task with the updates each of its rounds aggregates.
    let mut committed: Vec<(&TaskSpec, Vec<u64>)> = Vec::with_capacity(accepted.len());
    for (at, spec) in &accepted {
        cluster.advance_to(*at);
        let start = Instant::now();
        let plan = runner.plan(spec, &dataset, &mut cluster, &mut fleet, &mut storage, *at);
        let took = secs(start);
        spans.add("core.plan_s", took);
        plan_ms.push(took * 1e3);
        let plan = match plan {
            Ok(plan) => plan,
            Err(err) => {
                rec.problem(format!("replayed plan of task {} failed: {err}", spec.id));
                continue;
            }
        };
        let groups = plan.placement_groups().to_vec();
        let report = spans.time("phone.commit_s", || runner.commit(plan, &mut fleet));
        spans.time("cluster.release_s", || {
            for pg in groups {
                cluster.release_job(pg);
            }
        });
        match report {
            Ok(report) => {
                planned_updates += device_updates([&report]);
                let included = report.rounds.iter().map(|r| r.included_updates).collect();
                committed.push((spec, included));
            }
            Err(err) => rec.problem(format!("replayed commit of task {} failed: {err}", spec.id)),
        }
    }

    // ml + codec: every device update of every round trained, encoded and
    // stored; as many as the replayed plan aggregates fetched, decoded and
    // aggregated, as `plan_timeline` does; the model then evaluated.
    let mut trained_updates = 0u64;
    for (spec, included) in committed {
        let Ok(allocation) = runner.plan_allocation(spec, &cluster) else {
            rec.problem(format!("replayed allocation of task {} failed", spec.id));
            continue;
        };
        // Device numbering of the runner: per grade, logical devices on
        // the server kernel, then phone and benchmark devices on the
        // mobile kernel.
        let mut devices: Vec<(DeviceId, KernelKind)> = Vec::new();
        for grade in &allocation.grades {
            for (n, kernel) in [
                (grade.logical_devices, KernelKind::Server),
                (grade.phone_devices, KernelKind::Mobile),
                (grade.benchmark_devices, KernelKind::Mobile),
            ] {
                for _ in 0..n {
                    devices.push((DeviceId(devices.len() as u64), kernel));
                }
            }
        }
        let trainer = LocalTrainer::new(spec.train);
        let mut global = LrModel::zeros(dataset.feature_dim);
        for round in (0..spec.rounds).map(RoundId) {
            spans.time("core.codec_s", || {
                storage.put(
                    StorageKey::for_global_model(spec.id, round),
                    global.to_bytes(),
                );
            });
            let mut keys = Vec::with_capacity(devices.len());
            for &(device, kernel) in &devices {
                let shard = &dataset.devices[(device.0 % dataset.devices.len() as u64) as usize];
                let update =
                    spans.time("ml.train_s", || trainer.train(&global, &shard.data, kernel));
                let key = StorageKey::for_update(spec.id, round, device);
                spans.time("core.codec_s", || {
                    storage.put(key.clone(), encode_update(&update));
                });
                keys.push(key);
            }
            trained_updates += devices.len() as u64;
            let aggregated = included.get(round.0 as usize).map_or(0, |&n| n as usize);
            let decoded = spans.time("core.codec_s", || {
                let fetched: Result<Vec<_>, _> = keys[..aggregated.min(keys.len())]
                    .iter()
                    .map(|key| storage.get(key).and_then(decode_update))
                    .collect();
                for key in &keys {
                    storage.remove(key);
                }
                fetched
            });
            match decoded {
                Ok(updates) if !updates.is_empty() => {
                    if let Ok(aggregate) =
                        spans.time("ml.aggregate_s", || FedAvg::aggregate(&updates))
                    {
                        global = aggregate;
                    }
                }
                Ok(_) => {}
                Err(err) => rec.problem(format!("update codec round trip failed: {err}")),
            }
            std::hint::black_box(spans.time("ml.evaluate_s", || evaluate(&global, &dataset.test)));
        }
    }
    drop((storage, cluster));
    spans.time("phone.drop_s", || drop(fleet));

    // The real run, in the process that carries the trace.
    timed_run(w, &compiled, &dataset, &mut rec);

    for (name, run_count, replayed) in [
        (
            "arrivals",
            rec.get_count("sim.arrivals"),
            offsets.len() as u64,
        ),
        ("stragglers", rec.get_count("sim.stragglers"), stragglers),
        (
            "device updates (plan)",
            rec.get_count("ml.device_updates"),
            planned_updates,
        ),
        (
            "device updates (ml)",
            rec.get_count("ml.device_updates"),
            trained_updates,
        ),
    ] {
        if run_count != replayed {
            rec.problem(format!(
                "replayed {name} {replayed} != the run's {run_count}"
            ));
        }
    }
    rec.count("replay.arrivals", offsets.len() as u64);
    rec.count("replay.stragglers", stragglers);
    rec.count("replay.device_updates", trained_updates);

    for (name, seconds) in &spans.totals {
        rec.metric(name, *seconds);
    }
    rec.metric(
        "core.plan_ms_p50",
        percentile(&plan_ms, 50.0).unwrap_or(0.0),
    );
    rec.metric(
        "core.plan_ms_p95",
        percentile(&plan_ms, 95.0).unwrap_or(0.0),
    );
    let run_s = rec.metrics.get("run_s").copied().unwrap_or(0.0);
    let explained: f64 = RUN_SPANS.iter().map(|name| spans.get(name)).sum();
    rec.metric(
        "trace.coverage",
        if run_s > 0.0 { explained / run_s } else { 0.0 },
    );
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, DEFAULT_SEED};
    use simdc_phone::FleetSpec;

    /// A committed workload shrunk to test size: `phones` phones and a
    /// tenth of the horizon, same arrival mix, template and injectors.
    fn small(name: &'static str, phones: usize) -> Workload {
        let base = find(name).unwrap();
        let mut spec = base
            .spec(DEFAULT_SEED, None)
            .unwrap()
            .with_horizon_scale(0.1);
        spec.fleet = FleetSpec::scaled_paper(phones);
        let spec_json: &'static str = Box::leak(spec.to_json_string_pretty().into_boxed_str());
        Workload {
            spec_json,
            pinned_digests: &[0],
            ..*base
        }
    }

    #[test]
    fn replay_counts_equal_the_runs() {
        for (name, phones) in [("fleet_1m", 3_000), ("cloud_burst", 30)] {
            let w = small(name, phones);
            let rec = traced(&w, 11, None);
            assert!(rec.problems.is_empty(), "{name}: {:?}", rec.problems);
            assert!(rec.get_count("sim.arrivals") > 0, "{name}");
            assert!(rec.get_count("ml.device_updates") > 0, "{name}");
            for (replayed, run) in [
                ("replay.arrivals", "sim.arrivals"),
                ("replay.stragglers", "sim.stragglers"),
                ("replay.device_updates", "ml.device_updates"),
            ] {
                assert_eq!(
                    rec.get_count(replayed),
                    rec.get_count(run),
                    "{name}: {replayed}"
                );
            }
            assert_eq!(rec.get_count("phone.phones"), phones as u64);
            for metric in RUN_SPANS
                .iter()
                .chain(&["run_s", "trace.coverage", "core.plan_ms_p95"])
            {
                assert!(
                    rec.metrics.contains_key(*metric),
                    "{name}: {metric} missing"
                );
            }
        }
        // The fleet workload's injectors slow a share of the phones.
        let rec = traced(&small("fleet_1m", 3_000), 11, None);
        assert!(rec.get_count("replay.stragglers") > 0);
    }

    #[test]
    fn a_perturbed_summary_fails_the_digest_check() {
        let w = small("cloud_burst", 30);
        let compiled = w.spec(5, None).unwrap().compile().unwrap();
        let dataset = Arc::new(CtrDataset::generate(&dataset_config(5)));
        let mut summary = compiled.run(&dataset);
        let pinned = summary_digest(&summary);
        assert!(summary_problems(&summary, Some(pinned)).is_empty());
        assert!(summary_problems(&summary, None).is_empty());

        summary.mean_wait_secs += 1e-9;
        let problems = summary_problems(&summary, Some(pinned));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("digest"), "{problems:?}");
        // Without a pin (non-default seed) the accounting checks remain.
        summary.completed += 1;
        assert_eq!(summary_problems(&summary, None).len(), 1);
    }

    #[test]
    fn untraced_runs_repeat_and_report_every_end_to_end_metric() {
        let w = small("fedavg_poisson", 30);
        let a = untraced(&w, 3, None);
        let b = untraced(&w, 3, Some(1));
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert!(crate::check::repeat_problems(&a, &b, "threads=1").is_empty());
        for (name, _) in crate::END_TO_END {
            assert!(a.metrics[name] > 0.0, "{name}");
        }
    }
}

//! Criterion micro-benchmarks of SimDC's performance-critical components:
//! the DES event loop, the allocation optimizer, the AUC discretizer,
//! DeviceFlow dispatch throughput, local training, the device-update codec
//! and ADB parsing.
//!
//! These benches establish that the platform itself scales (the §VI-B.4
//! "easily scalable" claim): simulating 100k devices must take wall-time
//! seconds, not hours.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use simdc_cluster::{ClusterConfig, CostModel, JobSpec, LogicalCluster};
use simdc_core::alloc::{optimize, GradeAllocParams};
use simdc_core::cloud::{decode_update, encode_update};
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_deviceflow::{discretize, DeviceFlow, DispatchStrategy, FlowHarness, TrafficFunction};
use simdc_ml::{KernelKind, LocalTrainer, LocalUpdate, LrModel, TrainConfig};
use simdc_simrt::{Engine, EngineCtx, RngStream, World};
use simdc_types::{
    DeviceGrade, DeviceId, Message, MessageId, PerGrade, ResourceBundle, RoundId, SimDuration,
    SimInstant, StorageKey, TaskId,
};

fn des_event_loop(c: &mut Criterion) {
    struct Relay {
        remaining: u64,
    }
    impl World for Relay {
        type Event = ();
        fn handle(&mut self, ctx: &mut EngineCtx<'_, ()>, (): ()) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(SimDuration::from_micros(1), ());
            }
        }
    }
    let mut group = c.benchmark_group("des_event_loop");
    for &n in &[10_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = Engine::new(Relay { remaining: n });
                engine.schedule_in(SimDuration::ZERO, ());
                engine.run()
            });
        });
    }
    group.finish();
}

fn allocation_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_optimize");
    for &n in &[1_000u64, 100_000, 10_000_000] {
        let params = [
            GradeAllocParams {
                total_devices: n,
                benchmark: 5,
                unit_bundles: 120,
                units_per_device: 8,
                phones: 12,
                alpha: SimDuration::from_secs(20),
                beta: SimDuration::from_secs_f64(16.2),
                lambda: SimDuration::from_secs(30),
            },
            GradeAllocParams {
                total_devices: n,
                benchmark: 5,
                unit_bundles: 80,
                units_per_device: 2,
                phones: 8,
                alpha: SimDuration::from_secs(26),
                beta: SimDuration::from_secs_f64(21.6),
                lambda: SimDuration::from_secs(45),
            },
        ];
        group.bench_with_input(BenchmarkId::from_parameter(n), &params, |b, params| {
            b.iter(|| optimize(params).unwrap());
        });
    }
    group.finish();
}

fn auc_discretizer(c: &mut Criterion) {
    let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
    c.bench_function("discretize_10k_msgs", |b| {
        b.iter(|| discretize(&function, &domain, SimDuration::from_secs(60), 10_000, 700).unwrap());
    });
}

fn deviceflow_throughput(c: &mut Criterion) {
    let msg = |i: u64| {
        Message::model_update(
            MessageId(i),
            TaskId(1),
            DeviceId(i),
            RoundId(0),
            1,
            StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(i)),
            SimInstant::EPOCH,
        )
    };
    c.bench_function("deviceflow_dispatch_10k", |b| {
        b.iter(|| {
            let mut flow = DeviceFlow::new();
            flow.register_task(TaskId(1), DispatchStrategy::immediate())
                .unwrap();
            let mut harness = FlowHarness::new(flow, RngStream::from_seed(1));
            harness.round_started(TaskId(1), RoundId(0));
            for i in 0..10_000 {
                harness.ingest_at(SimInstant::EPOCH, msg(i));
            }
            harness.run();
            harness.delivered_messages()
        });
    });
}

fn local_training(c: &mut Criterion) {
    let data = CtrDataset::generate(&GeneratorConfig {
        n_devices: 1,
        n_test_devices: 1,
        mean_records_per_device: 200.0,
        feature_dim: 1 << 16,
        seed: 1,
        ..GeneratorConfig::default()
    });
    let shard = &data.devices[0].data;
    let global = LrModel::zeros(data.feature_dim);
    let trainer = LocalTrainer::new(TrainConfig::default());
    let mut group = c.benchmark_group("local_train_200ex_10ep");
    for kernel in [KernelKind::Server, KernelKind::Mobile] {
        group.bench_function(format!("{kernel:?}"), |b| {
            b.iter(|| trainer.train(&global, shard, kernel));
        });
    }
    group.finish();
}

/// Encoding and decoding one device update, the payload every device puts
/// into shared storage, at the 4,096-feature dimension of the `simbench`
/// dataset.
fn update_codec(c: &mut Criterion) {
    let update = LocalUpdate {
        model: LrModel::from_parts((0..4096).map(|i| i as f32 * 1e-3 - 2.0).collect(), 0.5),
        n_samples: 200,
        final_loss: 0.4,
    };
    let payload = encode_update(&update);
    let mut group = c.benchmark_group("update_codec");
    group.bench_function("encode_4096", |b| {
        b.iter(|| encode_update(black_box(&update)))
    });
    group.bench_function("decode_4096", |b| {
        b.iter(|| decode_update(black_box(payload.clone())).unwrap());
    });
    group.finish();
}

fn cluster_plan_100k(c: &mut Criterion) {
    c.bench_function("cluster_plan_100k_devices", |b| {
        b.iter(|| {
            let mut cluster = LogicalCluster::new(ClusterConfig {
                node_template: ResourceBundle::cores_gib(200, 300),
                initial_nodes: 1,
                max_nodes: 1,
                cost: CostModel {
                    jitter_frac: 0.0,
                    compute_per_device: PerGrade::new(SimDuration::from_secs(16)),
                    ..CostModel::default()
                },
                ..ClusterConfig::default()
            });
            let job = JobSpec {
                task: TaskId(1),
                round: RoundId(0),
                grade: DeviceGrade::High,
                devices: (0..100_000).map(DeviceId).collect(),
                unit_bundles: 200,
                units_per_device: 1,
                payload_mib: 4.0,
            };
            let mut rng = RngStream::from_seed(2);
            cluster.submit_job(&job, &mut rng).unwrap().makespan
        });
    });
}

fn adb_round_trip(c: &mut Criterion) {
    use simdc_phone::{PhoneMgr, RunPlan};
    use simdc_types::PhoneId;
    let mut mgr = PhoneMgr::paper_default(3);
    let plan = RunPlan::new(
        TaskId(1),
        PhoneId(0),
        SimInstant::EPOCH,
        &[SimDuration::from_secs(16)],
        &[],
    )
    .unwrap();
    mgr.submit_run(PhoneId(0), plan).unwrap();
    let t = SimInstant::EPOCH + SimDuration::from_secs(35);
    c.bench_function("phone_poll_full_battery", |b| {
        b.iter(|| mgr.poll(PhoneId(0), t).unwrap());
    });
}

criterion_group!(
    benches,
    des_event_loop,
    allocation_optimizer,
    auc_discretizer,
    deviceflow_throughput,
    local_training,
    update_codec,
    cluster_plan_100k,
    adb_round_trip
);
criterion_main!(benches);

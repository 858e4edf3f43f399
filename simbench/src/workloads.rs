//! The benchmark's workloads: committed `ScenarioSpec` documents (scale
//! already applied), the dataset each runs against, the fixed set of
//! sub-seeds an invocation cycles through, and the summary digest each
//! sub-seed produces at the default seed.

use simdc_data::GeneratorConfig;
use simdc_types::Result;
use simdc_workload::ScenarioSpec;

/// The seed every workload file carries — the fixtures' default platform
/// seed. Only at this seed are runs' summaries compared with pinned
/// digests; other seeds keep every other output check.
pub const DEFAULT_SEED: u64 = 0x51AD_C0DE;

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// The layers the workload loads, heaviest first.
    pub layers: &'static str,
    /// The committed `ScenarioSpec` JSON.
    pub spec_json: &'static str,
    /// FNV-1a digest of the summary JSON of each sub-seed of
    /// [`DEFAULT_SEED`]; their number is the workload's sub-seed count.
    pub pinned_digests: &'static [u64],
    /// Thread count of the untimed repeat run each invocation makes; its
    /// summary must equal the timed runs' (`None`: the spec's own count).
    pub parity_threads: Option<usize>,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet_1m",
        why: "mega_fleet over 1M phones at 1 thread, the default users run",
        layers: "phone (fleet build, index, benchmark measurement), workload (injectors), core",
        spec_json: include_str!("../workloads/fleet_1m.json"),
        pinned_digests: &[10_985_890_306_030_283_932, 11_342_677_571_083_872_025],
        parity_threads: None,
    },
    Workload {
        name: "fedavg_poisson",
        why: "steady_poisson at 16x rate on the 30-phone fleet, 2 threads",
        layers: "core (plan, update codec, storage), ml (train, FedAvg, evaluate)",
        spec_json: include_str!("../workloads/fedavg_poisson.json"),
        pinned_digests: &[
            14_276_460_444_194_001_759,
            9_702_291_457_615_906_836,
            15_253_057_641_205_883_428,
            17_133_982_085_561_119_784,
            10_590_023_512_553_494_644,
            14_634_283_684_769_421_522,
            8_062_203_976_207_949_663,
            10_327_429_093_800_488_673,
            8_299_272_737_522_145_037,
            13_524_372_523_642_498_206,
            6_455_184_917_539_181_479,
            6_099_479_163_968_297_120,
            7_994_889_056_253_612_842,
            8_586_737_308_764_615_940,
            8_742_805_360_145_010_497,
            178_167_480_779_067_376,
        ],
        parity_threads: Some(1),
    },
    Workload {
        name: "cloud_burst",
        why: "cloud_surge at 16x rate, 1 thread",
        layers: "cluster (elastic placement, autoscaler), core (plan, codec), ml",
        spec_json: include_str!("../workloads/cloud_burst.json"),
        pinned_digests: &[
            11_644_397_778_351_029_835,
            16_438_296_510_053_273_592,
            6_151_312_812_152_505_721,
            9_268_880_517_034_013_717,
            10_395_510_262_812_180_559,
            5_436_606_158_535_675_441,
            5_538_984_036_487_060_689,
            16_174_577_795_628_087_120,
            6_637_817_484_362_101_730,
            5_893_132_840_808_428_425,
            10_967_423_746_228_478_046,
            5_186_088_627_293_421_954,
            14_893_323_163_817_496_574,
            6_106_628_369_050_622_454,
            12_363_256_695_777_150_247,
            17_111_610_140_216_292_226,
        ],
        parity_threads: None,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Loads the committed spec through the strict loader and applies the
    /// run's seed (and a thread override for the parity check).
    ///
    /// # Errors
    ///
    /// Propagates spec loading errors.
    pub fn spec(&self, seed: u64, threads: Option<usize>) -> Result<ScenarioSpec> {
        let mut spec = ScenarioSpec::from_json_str(self.spec_json)?;
        spec.seed = seed;
        if let Some(threads) = threads {
            spec.threads = threads;
        }
        Ok(spec)
    }

    /// The scenario seeds an invocation at `seed` cycles through: `seed`
    /// itself, then SplitMix64 mixes of it. The set is fixed per
    /// workload, so every build measures the same arrival samples.
    #[must_use]
    pub fn run_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.pinned_digests.len() as u64)
            .map(|index| sub_seed(seed, index))
            .collect()
    }

    /// The pinned digest a run at scenario seed `seed` must reproduce: the
    /// one of the matching sub-seed of [`DEFAULT_SEED`], if any.
    #[must_use]
    pub fn expected_digest(&self, seed: u64) -> Option<u64> {
        self.run_seeds(DEFAULT_SEED)
            .into_iter()
            .zip(self.pinned_digests)
            .find_map(|(pinned_seed, digest)| (pinned_seed == seed).then_some(*digest))
    }
}

/// Sub-seed `index` of `seed`: `seed` itself for index 0, a SplitMix64
/// mix of it otherwise.
fn sub_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The CTR dataset every workload trains on: 120 device shards of ~20
/// records over 4096 hashed features, seeded with the run seed.
#[must_use]
pub fn dataset_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_devices: 120,
        n_test_devices: 12,
        mean_records_per_device: 20.0,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed,
        ..GeneratorConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_loads_and_carries_the_default_seed() {
        for w in &WORKLOADS {
            let spec = ScenarioSpec::from_json_str(w.spec_json).unwrap();
            assert_eq!(spec.seed, DEFAULT_SEED, "{}", w.name);
            let reseeded = w.spec(7, Some(1)).unwrap();
            assert_eq!((reseeded.seed, reseeded.threads), (7, 1));
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn digests_are_checked_only_at_the_default_seeds_sub_seeds() {
        for w in &WORKLOADS {
            let seeds = w.run_seeds(DEFAULT_SEED);
            assert_eq!(seeds[0], DEFAULT_SEED, "{}", w.name);
            for (seed, digest) in seeds.iter().zip(w.pinned_digests) {
                assert_eq!(w.expected_digest(*seed), Some(*digest), "{}", w.name);
            }
            for seed in w.run_seeds(DEFAULT_SEED + 1) {
                assert_eq!(w.expected_digest(seed), None, "{}", w.name);
            }
        }
    }
}

//! Cross-build byte-identity pins for the determinism-critical scenarios.
//!
//! The in-module scenario tests assert that *two runs in the same build*
//! agree byte for byte; this suite goes further and pins a digest of the
//! summary JSON, so a change that is internally consistent but alters the
//! bytes — e.g. swapping an ordered map for a hash map on a
//! determinism-relevant path, exactly what `simlint` rule D1 guards —
//! fails here even though both runs of the new build still match each
//! other.
//!
//! If a PR changes simulation behavior *on purpose*, update the pinned
//! digests below (the assertion message prints the observed value) and
//! say why in the PR description, the same contract as the golden
//! fixtures under `crates/bench/tests/golden/`.

use std::sync::Arc;

use simdc_core::PlatformConfig;
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_workload::fixture;

/// FNV-1a 64-bit, dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn dataset() -> Arc<CtrDataset> {
    Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 40,
        n_test_devices: 8,
        mean_records_per_device: 15.0,
        feature_dim: 1 << 12,
        seed: 55,
        ..GeneratorConfig::default()
    }))
}

#[test]
fn mega_fleet_summary_digest_is_pinned() {
    // The platform seed (21) differs from the fixture's, so the scenario
    // half runs on its own rather than through `CompiledScenario::run`.
    let scenario = fixture("mega_fleet")
        .unwrap()
        .with_horizon_scale(0.1)
        .compile()
        .unwrap()
        .scenario;
    let config = PlatformConfig {
        fleet: simdc_phone::FleetSpec::scaled_paper(1_500),
        ..PlatformConfig::default()
    };
    let summary = scenario.run(config, &dataset(), 21);
    let json = serde_json::to_string(&summary).expect("summary serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        MEGA_FLEET_DIGEST,
        "mega_fleet summary bytes changed; if intentional, re-pin the digest"
    );
}

#[test]
fn cloud_surge_summary_digest_is_pinned() {
    let scenario = fixture("cloud_surge").unwrap().compile().unwrap().scenario;
    let summary = scenario.run(PlatformConfig::default(), &dataset(), 42);
    let json = serde_json::to_string(&summary).expect("summary serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        CLOUD_SURGE_DIGEST,
        "cloud_surge summary bytes changed; if intentional, re-pin the digest"
    );
}

/// Pinned over the BTreeMap-converted (PR 6) platform state; stable since.
const MEGA_FLEET_DIGEST: u64 = 6_374_329_799_801_503_195;
/// Re-pinned when autoscaler reclaim started waking the platform: reclaim
/// wake events change `node_ready_events` counts (and downstream cost
/// accounting) on purpose. See the autoscaler's reclaimed-drain tests.
const CLOUD_SURGE_DIGEST: u64 = 3_823_498_095_159_712_412;

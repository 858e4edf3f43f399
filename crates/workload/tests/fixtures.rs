//! The scenario-fixture contract: every named scenario is a JSON spec
//! committed under `fixtures/scenarios/` at the repository root and
//! registered in [`simdc_workload::fixtures::EMBEDDED`]. The registry and
//! the directory agree, each file is in canonical form, and the library
//! fixtures run to the summaries pinned in `tests/golden/fixture_summaries.json`.
//!
//! Regenerate after an intentional schema or behavior change with
//! `SIMDC_WRITE_FIXTURES=1 cargo test -p simdc-workload --test fixtures`,
//! which rewrites the fixtures in canonical form and the golden from the
//! current runs; commit the diff after review.

use std::path::PathBuf;
use std::sync::Arc;

use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_types::SimdcError;
use simdc_workload::fixtures::{EMBEDDED, LIBRARY};
use simdc_workload::{fixture, ScenarioSpec};

/// The golden-summary fixtures run at this fraction of their horizon.
const GOLDEN_HORIZON_SCALE: f64 = 0.25;

fn write_requested() -> bool {
    std::env::var_os("SIMDC_WRITE_FIXTURES").is_some()
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/scenarios")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fixture_summaries.json")
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

/// Every spec file in the fixture directory is registered and every
/// registered name has its file; names are unique, each file carries its
/// own name, and each file is byte-identical to the canonical
/// serialization of what it parses to. Unknown names are typed errors.
#[test]
fn fixtures_are_registered_and_canonical() {
    let mut on_disk: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixture directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|file| file.to_str()?.strip_suffix(".json").map(str::to_owned))
        .filter(|stem| stem != "scenario_summary.schema")
        .collect();
    on_disk.sort();
    let registered: Vec<&str> = EMBEDDED.iter().map(|(name, _)| *name).collect();
    assert_eq!(on_disk, registered, "fixture files and registry differ");
    assert!(
        registered.windows(2).all(|pair| pair[0] < pair[1]),
        "registry names must be unique and sorted"
    );

    for name in registered {
        let path = fixture_dir().join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path).expect("fixture readable");
        let spec = ScenarioSpec::from_json_str(&committed)
            .unwrap_or_else(|e| panic!("fixture {name} does not load: {e}"));
        assert_eq!(spec.name, name, "fixture file and spec name differ");
        let canonical = format!("{}\n", spec.to_json_string_pretty());
        if write_requested() {
            std::fs::write(&path, &canonical).expect("write fixture");
        }
        assert_eq!(
            committed, canonical,
            "fixture {name} is not in canonical form; regenerate with \
             SIMDC_WRITE_FIXTURES=1 and review the diff"
        );
    }

    match fixture("no_such_scenario") {
        Err(SimdcError::InvalidConfig(msg)) => {
            assert_eq!(msg, "unknown scenario fixture `no_such_scenario`");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// The behavior contract of the library: each fixture, in library order
/// and at a quarter of its horizon, runs to exactly the pinned summary.
#[test]
fn fixture_summaries_match_the_golden() {
    let data = dataset();
    let summaries: Vec<_> = LIBRARY
        .iter()
        .map(|name| {
            fixture(name)
                .expect("fixture loads cleanly")
                .with_horizon_scale(GOLDEN_HORIZON_SCALE)
                .compile()
                .expect("fixture compiles")
                .run(&data)
        })
        .collect();
    let mut expected = serde_json::to_string_pretty(&summaries).expect("summaries serialize");
    expected.push('\n');
    let path = golden_path();
    if write_requested() {
        std::fs::write(&path, &expected).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("golden exists");
    assert_eq!(
        committed, expected,
        "fixture summaries drifted from the golden; if intentional, regenerate \
         with SIMDC_WRITE_FIXTURES=1 and explain the re-pin"
    );
}

//! The committed scenario fixtures — the only source of named scenarios.
//!
//! Every `fixtures/scenarios/<name>.json` at the repository root is a
//! [`ScenarioSpec`] embedded here at build time, so benches, tests and
//! tools load the same bytes without touching the file system.
//! [`fixture`] parses one through the strict [`ScenarioSpec::from_json_str`]
//! loader; [`LIBRARY`] names the eight workloads of the scenario suite.
//!
//! To add a scenario, commit its spec as `fixtures/scenarios/<name>.json`
//! and register the name in [`EMBEDDED`] (and in [`LIBRARY`] if the
//! scenario suite should run it). The fixture tests fail until the file
//! and the registry agree and the file is in canonical form.

use simdc_types::{Result, SimdcError};

use crate::spec::ScenarioSpec;

macro_rules! embed {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../fixtures/scenarios/", $name, ".json")))),*]
    };
}

/// Every committed fixture as `(name, JSON text)`, sorted by name.
pub const EMBEDDED: [(&str, &str); 9] = embed![
    "benchmark_outage",
    "budget_capped",
    "cloud_surge",
    "diurnal_cycle",
    "flash_crowd",
    "mega_fleet",
    "phone_churn",
    "steady_poisson",
    "straggler_fleet",
];

/// The scenario library in report order: steady load, time-varying load,
/// flash crowds, fleet churn, stragglers, benchmark-phone outages, then
/// the two elastic-cloud scenarios. `mega_fleet` is the scale bench's
/// scenario and is not part of it.
pub const LIBRARY: [&str; 8] = [
    "steady_poisson",
    "diurnal_cycle",
    "flash_crowd",
    "phone_churn",
    "straggler_fleet",
    "benchmark_outage",
    "cloud_surge",
    "budget_capped",
];

/// Loads the fixture named `name`.
///
/// # Errors
///
/// [`SimdcError::InvalidConfig`] for a name no fixture carries, plus
/// whatever [`ScenarioSpec::from_json_str`] rejects in the fixture itself.
pub fn fixture(name: &str) -> Result<ScenarioSpec> {
    let (_, text) = EMBEDDED
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(|| SimdcError::InvalidConfig(format!("unknown scenario fixture `{name}`")))?;
    ScenarioSpec::from_json_str(text)
}

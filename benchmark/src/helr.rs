//! `helr-boot`: HELR training iterations at boot-test parameters
//! (N=2^10, L=20), runtime rotation keys, one bootstrap per iteration.

use crate::local::{Case, LocalSpec};
use crate::stats::mix;
use crate::KEY_SEED;
use ark_fhe::arch::ArkConfig;
use ark_fhe::engine::Backend;
use ark_scenarios::{HelrScenario, Scenario};

/// Minibatches the closed loop cycles through.
const CASES: u64 = 6;

/// The workload for `seed`: the engine is the scenario's own setup
/// under the fixed [`KEY_SEED`]; the minibatches are seed-derived.
pub fn spec(seed: u64) -> LocalSpec {
    let scenarios: Vec<HelrScenario> = (0..CASES)
        .map(|k| HelrScenario::new(mix(seed, k)))
        .collect();
    let mut setup = scenarios[0].setup();
    setup.seed = KEY_SEED;
    let sim_setup = setup.clone();
    let cases = scenarios.iter().map(|s| Case::from_scenario(s)).collect();
    LocalSpec {
        name: "helr-boot",
        software: Box::new(move || setup.engine(Backend::Software)),
        simulated: Box::new(move || sim_setup.engine(Backend::Simulated(ArkConfig::base()))),
        cases,
    }
}

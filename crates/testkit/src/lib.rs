#![warn(missing_docs)]

//! # rfh-testkit — hermetic test infrastructure
//!
//! Zero-dependency replacements for the external test crates the RFH
//! workspace historically pulled from crates.io, so the whole workspace
//! builds and tests with an empty cargo registry (`--offline`):
//!
//! * [`rng`] — deterministic PRNG ([`rng::SmallRng`]: xoshiro256++ seeded
//!   via SplitMix64) with a [`rng::Rng`] trait mirroring the `rand`
//!   surface the workspace uses, stream-compatible with `rand` 0.8 so
//!   seeded workload data (and the golden `results/*.csv`) is unchanged;
//! * [`strategy`] + [`prop`] — a property-testing harness
//!   ([`prop!`](crate::prop), [`prop_assert!`](crate::prop_assert),
//!   [`prop_oneof!`](crate::prop_oneof), [`strategy::collection::vec`],
//!   [`strategy::option::of`]) with greedy input shrinking and
//!   fixed-seed reproduction via `RFH_TESTKIT_SEED`;
//! * [`pool`] — a scoped thread pool ([`pool::par_map`]) used by the
//!   experiment engine and the chaos harness to fan sweeps out across
//!   cores (`RFH_JOBS` knob) while keeping results in input order, so
//!   parallel runs stay byte-identical to serial ones;
//! * [`env`] — the single home for environment-variable knob parsing
//!   (`RFH_JOBS`, `RFH_CHAOS_CASES`, `RFH_TESTKIT_SEED`, `RFH_TESTKIT_CASES`):
//!   malformed values warn loudly with the offending string instead of
//!   silently falling back or panicking;
//! * [`corpus`] — the kernel-text corpus shared by the parser fuzz tests
//!   and the lint golden report;
//! * [`json`] — the workspace's one JSON parser and writer (daemon
//!   protocol, lint and trace output).
//!
//! See `docs/TESTING.md` at the repository root for the workflow guide.

pub mod corpus;
pub mod env;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod shrink;
pub mod strategy;

// Mirror the `proptest::{collection, option}` module paths at the crate
// root, so test code reads the same as it did under proptest.
pub use strategy::{collection, option};

/// One-stop imports for property tests (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::rng::{Rng, RngCore, SeedableRng, SmallRng, SplitMix64};
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Strategy, StrategyExt};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_oneof};
}

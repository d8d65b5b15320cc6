//! Scenario-level benchmark of the ACC-Turbo reproduction.
//!
//! Each workload is a named `xp run` scenario sentence. An untraced run
//! repeats it through the real `ScenarioSpec` path and reports the
//! end-to-end metrics; a traced run wraps the public `PacketSource` and
//! `Switch` traits and replays the packets through the clustering,
//! control and queue APIs to split the time by layer. Every simulation
//! is checked: packet conservation, a digest at the workload's canonical
//! seed, and byte-identical summaries across repeats and between traced
//! and untraced runs. See `README.md` beside this crate.

#![deny(missing_docs)]

pub mod check;
pub mod metrics;
pub mod probe;
pub mod replay;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workloads;

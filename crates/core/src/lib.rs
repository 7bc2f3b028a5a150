//! # csprov — "Provisioning On-line Games", reproduced
//!
//! A full reproduction of *Provisioning On-line Games: A Traffic Analysis
//! of a Busy Counter-Strike Server* (Feng, Chang, Feng, Walpole — OGI
//! CSE-02-005 / IMC 2002) as a Rust workspace. The original 500-million
//! packet trace is long gone, so this crate regenerates an equivalent one:
//! a deterministic discrete-event simulation of the studied server (22
//! slots, 50 ms tick, 30-minute map rotation, a worldwide population of
//! mostly-modem clients) feeds the same streaming analyses the paper ran,
//! and every table and figure is reproduced with paper-vs-measured
//! comparisons.
//!
//! ## Quickstart
//!
//! ```
//! use csprov::pipeline::MainRun;
//! use csprov::experiments::tables;
//! use csprov_game::ScenarioConfig;
//! use csprov_sim::SimDuration;
//!
//! // Simulate 5 minutes of the busy server and print Table II.
//! let run = MainRun::execute(ScenarioConfig::new(42, SimDuration::from_mins(5)));
//! println!("{}", tables::table2(&run).render());
//! assert!(run.analysis.counts.total_packets() > 50_000);
//! ```
//!
//! ## Layers
//!
//! - [`csprov_sim`] — deterministic discrete-event kernel.
//! - [`csprov_net`] — wire formats, links, trace capture, pcap.
//! - [`csprov_game`] — the Counter-Strike workload model.
//! - [`csprov_router`] — NAT device, route tables, route caches.
//! - [`csprov_analysis`] — the measurement toolkit.
//! - [`csprov_model`] — fitted source models.
//! - [`pipeline`] / [`experiments`] (this crate) — one-pass analysis and
//!   every paper artifact as a typed experiment.

pub mod chaos;
pub mod experiments;
pub mod fleet;
pub mod pipeline;
pub mod sweep;

pub use chaos::{ChaosReport, ChaosSpec};
pub use experiments::ExperimentId;
pub use fleet::{
    run_fleet, run_fleet_full, FailSpec, FleetConfig, FleetCoverage, FleetError, FleetEvent,
    FleetMerger, FleetPersistence, FleetRun, PersistSummary, ProvisioningReport, RetryPolicy,
};
pub use pipeline::{FullAnalysis, MainRun};
pub use sweep::{run_parallel, work_steal, RunSummary, WorkerPanic, WorkerPanics};

// Re-export the component crates under one roof for downstream users.
pub use csprov_analysis as analysis;
pub use csprov_game as game;
pub use csprov_model as model;
pub use csprov_net as net;
pub use csprov_router as router;
pub use csprov_sim as sim;
pub use csprov_web as web;

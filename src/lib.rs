//! Blox: a modular toolkit for deep-learning cluster schedulers.
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`core`] — shared state, policy traits, and the round-based loop.
//! * [`sim`] — the discrete round-based cluster simulator.
//! * [`workloads`] — the model zoo and trace generators/parsers.
//! * [`policies`] — admission, scheduling, and placement policies
//!   (FIFO, LAS, Tiresias, Optimus, Gavel, Pollux, Themis, Synergy, ...).
//! * [`runtime`] — the deployment runtime (central scheduler, worker
//!   managers, client library, lease protocol).
//! * [`net`] — the networked deployment subsystem (framed-TCP transport,
//!   `bloxschedd`/`bloxnoded` daemons, live job submission).
//! * [`synth`] — the automatic scheduler synthesizer.
//!
//! # Quickstart
//!
//! The canonical scheduler composition from the paper's Figure 2 — an
//! accept-all admission policy, FIFO scheduling, consolidated placement —
//! running in simulation:
//!
//! ```
//! use blox::core::{BloxManager, RunConfig, StopCondition};
//! use blox::policies::{admission::AcceptAll, placement::ConsolidatedPlacement,
//!                      scheduling::Fifo};
//! use blox::sim::SimBackend;
//! use blox::workloads::{philly::PhillyTraceGen, ModelZoo};
//!
//! let zoo = ModelZoo::standard();
//! let trace = PhillyTraceGen::new(&zoo, 4.0).generate(40, 7);
//! let cluster = blox::sim::cluster_of_v100(8); // 8 nodes x 4 GPUs
//! let backend = SimBackend::new(trace);
//! let mut mgr = BloxManager::new(backend, cluster, RunConfig::default());
//! let stats = mgr.run(
//!     &mut AcceptAll::new(),
//!     &mut Fifo::new(),
//!     &mut ConsolidatedPlacement::preferred(),
//! );
//! assert_eq!(stats.summary().jobs, 40);
//! ```

pub use blox_core as core;
pub use blox_net as net;
pub use blox_policies as policies;
pub use blox_runtime as runtime;
pub use blox_sim as sim;
pub use blox_synth as synth;
pub use blox_workloads as workloads;

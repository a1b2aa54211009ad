//! Scenario benchmark for the iPipe reproduction.
//!
//! The benchmark drives four scenario workloads through its own loops
//! ([`workload`]), times every call it makes into the program
//! ([`probe`]), checks each run's audits and exports, and reports two kinds
//! of metric ([`report`]): host time of the simulator, which is noisy and
//! reported as medians, and `sim.*` results of the modelled system, which
//! are exact for a given seed. Host times are rescaled to a reference
//! host speed measured beside every instance ([`reference`]).

pub mod probe;
pub mod reference;
pub mod report;
pub mod stats;
pub mod workload;

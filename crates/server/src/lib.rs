//! # netsolve-server
//!
//! The NetSolve computational server: advertises a problem catalogue
//! (parsed from PDL), executes requests against the `netsolve-solvers`
//! substrate, and reports workload to its agent on the lazy
//! threshold/interval policy.
//!
//! * [`ServerCore`] — the transport-free request path (receive → solve,
//!   and solve is cache → admission gate → solver) and the synthetic
//!   execution mode that emulates a machine of a chosen speed (the
//!   substitute for the paper's heterogeneous testbed);
//! * [`SolveCache`] — the content-addressed solve-result cache with
//!   in-flight request coalescing (S3-FIFO eviction under a byte budget,
//!   Yang et al., SOSP '23; CRC at insert and at serve), the outer layer
//!   of the solve stage;
//! * [`daemon`] — the live daemon: registration, request service loop,
//!   workload reporter.

#![warn(missing_docs)]

mod cache;
mod core;
pub mod daemon;
mod gate;

pub use crate::core::{ExecutionMode, ServerCore};
pub use cache::{solve_key, SolveCache};
pub use daemon::{ServerConfig, ServerDaemon};

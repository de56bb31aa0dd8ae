//! # netsolve-server
//!
//! The NetSolve computational server: advertises a problem catalogue
//! (parsed from PDL), executes requests against the `netsolve-solvers`
//! substrate, and reports workload to its agent on the lazy
//! threshold/interval policy.
//!
//! * [`ServerCore`] — the transport-free request path (admit → dequeue →
//!   solve), including the solve-slot admission gate and the synthetic
//!   execution mode that emulates a machine of a chosen speed (the
//!   substitute for the paper's heterogeneous testbed);
//! * [`SolveCache`] — the content-addressed solve-result cache with
//!   in-flight request coalescing (LRU under a byte budget, CRC at insert
//!   and at serve), the one layer the solve stage puts over the solver;
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

//! # netsolve-core
//!
//! Shared kernel of the netsolve-rs workspace — the Rust reproduction of
//! *NetSolve: A Network Server for Solving Computational Science Problems*
//! (Casanova & Dongarra, SC'96).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`data::DataObject`] — the values a NetSolve call carries (scalars,
//!   vectors, dense/sparse matrices, strings) and their wire sizes;
//! * [`problem::ProblemSpec`] — what a "problem" is: typed signature plus
//!   the `a·n^b` [`problem::Complexity`] cost model the agent's predictor
//!   uses;
//! * [`error::NetSolveError`] — the status-code catalogue;
//! * [`clock`] — the live path's one [`clock::Clock`], real or virtual, so
//!   timeouts, pacing and link time replay deterministically;
//! * [`rng::Rng64`] — seeded randomness for reproducible experiments;
//! * [`stats`] — EWMA/percentile helpers for the agent and the
//!   experiment harness.

#![warn(missing_docs)]

pub mod admission;
pub mod clock;
pub mod config;
pub mod data;
pub mod error;
pub mod ids;
pub mod matrix;
pub mod problem;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod units;

pub use admission::{AdmissionConfig, AdmissionDecision, AdmissionPolicy, ShedReason};
pub use clock::{Clock, RealClock, SimTime, VirtualClock};
pub use data::{DataObject, ObjectKind};
pub use error::{NetSolveError, Result};
pub use ids::{ClientId, HostId, RequestId, ServerId};
pub use matrix::Matrix;
pub use problem::{Complexity, ObjectSpec, ProblemSpec, RequestShape};
pub use rng::Rng64;
pub use sparse::CsrMatrix;

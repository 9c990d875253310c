//! # harness — benchmark and test infrastructure for the wCQ reproduction
//!
//! This crate provides everything the figure-regeneration binaries and the
//! integration tests share:
//!
//! * [`queues`] — a uniform [`BenchQueue`] trait, implemented on every
//!   queue in the evaluation (wCQ, SCQ, LCRQ, YMC, CRTurn, CCQueue,
//!   MSQueue, FAA, and the sharded, unbounded and channel surfaces), each
//!   with one builder from a [`queues::QueueSpec`];
//! * [`workload`] — the paper's three workloads (§6): pairwise
//!   enqueue–dequeue, 50%/50% random, and empty-queue dequeue, plus the
//!   memory-test variant with tiny random inter-operation delays;
//! * [`blocking`] — the burst workload for the blocking facade (parked vs
//!   spinning consumers): wakeup-latency samples and a process CPU census;
//! * [`stats`] — repetition, mean/stddev and the coefficient of variation
//!   the paper reports (CoV < 0.01), plus latency percentiles;
//! * [`alloc`] — a counting global allocator for the Fig. 10a memory census;
//! * [`pin`] — best-effort thread pinning (`sched_setaffinity`);
//! * [`model`] — a sequential reference model and MPMC delivery checkers
//!   used by the cross-crate integration tests.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod blocking;
pub mod model;
pub mod pin;
pub mod queues;
pub mod stats;
pub mod workload;

pub use queues::{BenchQueue, QueueHandle};
pub use stats::Stats;
pub use workload::{RunResult, Workload, WorkloadCfg};

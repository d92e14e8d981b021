//! Cycle-level observability: event ring, metrics registry, exporters.
//!
//! The paper's ADTS argument rests on *seeing into* the machine — the
//! detector thread reads per-thread status indicators every quantum. This
//! module is that visibility made first-class, in three layers:
//!
//! - [`ring`] — the bounded [`EventRing`] behind the machine's
//!   typed pipeline-event trace ([`crate::trace`]); emission sits behind
//!   the `const TRACE` monomorphization of `SmtMachine::step_impl`, so an
//!   untraced run compiles every emit point out and stays bit-identical
//!   to the golden fixtures;
//! - [`metrics`] — [`MetricsRegistry`]: named monotonic counters and
//!   occupancy histograms (reusing `smt_stats::Histogram`), registered
//!   once, bumped by id, snapshot without allocation;
//! - [`sampler`] — [`PipelineSampler`]: per-quantum occupancy/utilization
//!   sampling (IQ/LSQ/ROB depth, fetch-slot shares) that only reads the
//!   machine, and [`MultiCoreSampler`], its per-core analogue with
//!   thread-placement and shared-L2 contention instruments;
//! - [`attr`] — slot-accounting attribution ([`SlotAttribution`]): every
//!   fetch/issue/commit slot classified as used or lost-to-a-cause into
//!   per-thread CPI stacks, behind the same `const TRACE` gate;
//! - [`profile`] — [`StageProfile`]: host time per pipeline stage, read
//!   one cycle in [`PROFILE_PERIOD`] behind a `const PROFILE`
//!   monomorphization that the bare machine never steps;
//! - [`export`] — JSONL, Chrome `trace_event` and Prometheus text dumps.

pub mod attr;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod sampler;

pub use attr::{
    merge_attr_snapshots, register_attr_metrics, AttrSnapshot, CommitCause, FetchCause, IssueCause,
    SlotAttribution, SlotStack,
};
pub use export::MigrationArrow;
pub use metrics::{CounterId, HistId, MetricsRegistry, MetricsSnapshot};
pub use profile::{StageProfile, PROFILE_PERIOD};
pub use ring::EventRing;
pub use sampler::{MultiCoreSampler, PipelineSampler};

//! # smt-sim
//!
//! A cycle-level simultaneous-multithreading (SMT) pipeline simulator — the
//! substrate this reproduction builds in place of the paper's SimpleSMT
//! (itself an extension of SimpleScalar). Up to eight hardware contexts
//! share an 8-wide fetch/dispatch/issue/commit pipeline, split integer and
//! floating-point instruction queues, a load/store queue, rename registers,
//! a gshare branch predictor with BTB and per-thread return stacks, and a
//! two-level cache hierarchy.
//!
//! The simulator is *trace-driven*: each context consumes a deterministic
//! [`smt_workloads::UopStream`]. Branch outcomes and memory addresses are
//! resolved by the stream, but the machine discovers them at the
//! architecturally correct moment — predictions happen at fetch,
//! mispredictions trigger real wrong-path fetch and squash, loads find out
//! their latency from real shared caches at issue.
//!
//! Fetch-thread selection is delegated each cycle to a [`FetchChooser`]
//! (see `smt-policies` for the paper's ten policies); everything else in
//! the machine is policy-independent. The machine is `Clone`, which the
//! ADTS oracle scheduler uses to checkpoint and replay scheduling quanta.
//!
//! ```
//! use smt_sim::{SmtMachine, SimConfig, RoundRobin};
//! use smt_workloads::mix;
//!
//! let m = mix(1);
//! let mut machine = SmtMachine::new(SimConfig::default(), m.streams(42));
//! machine.run(10_000, &mut RoundRobin);
//! assert!(machine.total_committed() > 0);
//! ```

pub mod batch;
pub mod bpred;
pub mod cache;
pub mod chooser;
pub mod config;
pub mod counters;
pub mod inflight;
pub mod iqueue;
pub mod lookahead;
pub mod machine;
pub mod multicore;
pub mod obs;
pub mod snapshot;
pub mod trace;
pub mod wrongpath;

pub use batch::{
    run_scalar_quantum, BatchStats, LockstepCell, LockstepMachine, MachineBatch, QuantumForks,
};
pub use bpred::{BranchPredictor, Prediction};
pub use cache::{Cache, Hierarchy, MemAccessResult};
pub use chooser::{FetchChooser, FnChooser, RoundRobin};
pub use config::{CacheGeometry, SimConfig};
pub use counters::{CounterSnapshot, PolicyView, ThreadCounters};
pub use iqueue::IndexedQueue;
pub use machine::{GlobalCounters, MigratedThread, SmtMachine};
pub use multicore::{MultiCoreMachine, MultiCoreSnapshot, MC_FORMAT_VERSION};
pub use obs::{
    merge_attr_snapshots, AttrSnapshot, CommitCause, EventRing, FetchCause, IssueCause,
    MetricsRegistry, MetricsSnapshot, MigrationArrow, MultiCoreSampler, PipelineSampler,
    SlotAttribution, SlotStack, StageProfile,
};
pub use trace::{MissLevel, TraceBuffer, TraceEvent};

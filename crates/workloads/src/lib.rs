//! # smt-workloads
//!
//! The workload substrate that replaces SPEC CPU2000 in this reproduction:
//!
//! - [`apps`] — named application profiles calibrated to the published
//!   character of SPEC CPU2000 programs (instruction mix, working set,
//!   branch predictability, ILP);
//! - [`stream`] — the deterministic statistical micro-op generator that
//!   turns a profile into an infinite per-thread instruction stream;
//! - [`mixes`] — the thirteen eight-program mixes the paper evaluates,
//!   composed along the paper's axes (single-thread IPC class, memory
//!   footprint, int vs fp), plus the 4-/6-thread sub-mixes;
//! - [`trace`] — the replay backend: streams recorded to an `SMTTRACE`
//!   container replay bit-identically through the same [`UopStream`]
//!   interface the synthetic generator implements;
//! - [`seed`] — SplitMix64 seed derivation so every (experiment, mix,
//!   thread) tuple gets an independent, reproducible random stream.
//!
//! Everything is `Clone` and deterministic: cloning a stream and generating
//! from both copies yields identical micro-ops, which the oracle scheduler
//! in `adts-core` relies on.

pub mod apps;
pub mod mixes;
pub mod mixgen;
pub mod seed;
pub mod stream;
pub mod trace;

pub use apps::{app, app_names, APP_COUNT};
pub use mixes::{mix, mix_names, thread_addr_base, Mix, MIX_COUNT};
pub use mixgen::{generate as generate_mix, generate_many as generate_mixes, MixConstraints};
pub use seed::{unit_bound, SplitMix64};
pub use stream::{SynthStream, UopStream};
pub use trace::{streams_from_trace, TraceStream};

//! # smt-policies
//!
//! The SMT fetch policies the paper evaluates (Table 1) and the thread
//! selection unit that applies them. A [`FetchPolicy`] is a pure function
//! from a thread's counter snapshot to a priority key; [`Tsu`] plugs into
//! the machine as its per-cycle [`smt_sim::FetchChooser`] and fetches from
//! the two best-ranked threads, mirroring the ICOUNT2.8 mechanism of \[20\].
//!
//! The adaptive layer (`adts-core`) drives policy *switches*; this crate is
//! deliberately stateless beyond the incumbent policy, because that is all
//! the hardware TSU holds in the paper's design.

pub mod policy;
pub mod tsu;

pub use policy::FetchPolicy;
pub use tsu::Tsu;

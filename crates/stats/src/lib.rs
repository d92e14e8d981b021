//! # smt-stats
//!
//! Small, dependency-light statistics and reporting toolkit for the
//! SMT-ADTS experiments: per-quantum time series ([`series`]), scalar
//! aggregation ([`agg`]) and plain-text/CSV table rendering ([`table`]).
//! The repro harness prints exactly the rows the paper plots, so every
//! figure can be regenerated from a terminal.

pub mod agg;
pub mod hist;
pub mod series;
pub mod stack;
pub mod table;
pub mod timeline;

pub use agg::mean;
pub use hist::Histogram;
pub use series::{QuantumRecord, RunSeries, SwitchEvent};
pub use stack::{dominant, percent_cell, shares};
pub use table::Table;
pub use timeline::{policy_char, render_timeline};

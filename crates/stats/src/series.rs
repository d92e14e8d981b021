//! Per-quantum time series of one simulation run.

use serde::{Deserialize, Serialize};

/// Metrics of one scheduling quantum.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantumRecord {
    /// Quantum index from run start.
    pub index: u64,
    /// Name of the fetch policy in force at the *end* of the quantum.
    pub policy: String,
    /// Cycles simulated in this quantum.
    pub cycles: u64,
    /// Micro-ops committed in this quantum (all threads).
    pub committed: u64,
    /// Committed IPC of this quantum.
    pub ipc: f64,
    /// L1 (I+D) misses per cycle.
    pub l1_miss_rate: f64,
    /// Fraction of cycles the LSQ was full.
    pub lsq_full_rate: f64,
    /// Branch mispredicts per cycle.
    pub mispredict_rate: f64,
    /// Conditional branches fetched per cycle.
    pub branch_rate: f64,
    /// Unused fetch slots per cycle (the detector thread's budget).
    pub idle_fetch_rate: f64,
}

/// One policy-switch event, with its observed quality.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwitchEvent {
    /// Quantum index at whose boundary the switch was decided.
    pub quantum: u64,
    pub from: String,
    pub to: String,
    /// `Some(true)` if the following quantum's IPC improved (a *benign*
    /// switch, the paper's quality measure), `Some(false)` if it fell
    /// (*malignant*), `None` if the run ended before the outcome was known.
    pub benign: Option<bool>,
}

/// The full record of one run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSeries {
    pub quanta: Vec<QuantumRecord>,
    pub switches: Vec<SwitchEvent>,
}

impl RunSeries {
    /// Aggregate IPC over the whole run (committed / cycles).
    pub fn aggregate_ipc(&self) -> f64 {
        let cycles: u64 = self.quanta.iter().map(|q| q.cycles).sum();
        let committed: u64 = self.quanta.iter().map(|q| q.committed).sum();
        if cycles == 0 {
            0.0
        } else {
            committed as f64 / cycles as f64
        }
    }

    /// Number of switches whose outcome was observed.
    pub fn judged_switches(&self) -> usize {
        self.switches.iter().filter(|s| s.benign.is_some()).count()
    }

    /// Fraction of judged switches that were benign (`None` if no switch
    /// was judged).
    pub fn benign_fraction(&self) -> Option<f64> {
        let judged = self.judged_switches();
        if judged == 0 {
            return None;
        }
        let benign = self
            .switches
            .iter()
            .filter(|s| s.benign == Some(true))
            .count();
        Some(benign as f64 / judged as f64)
    }

    /// Switches per quantum (the paper's Fig 7 x-axis normalization).
    pub fn switch_rate(&self) -> f64 {
        if self.quanta.is_empty() {
            0.0
        } else {
            self.switches.len() as f64 / self.quanta.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(index: u64, cycles: u64, committed: u64) -> QuantumRecord {
        QuantumRecord {
            index,
            policy: "ICOUNT".into(),
            cycles,
            committed,
            ipc: committed as f64 / cycles as f64,
            l1_miss_rate: 0.0,
            lsq_full_rate: 0.0,
            mispredict_rate: 0.0,
            branch_rate: 0.0,
            idle_fetch_rate: 0.0,
        }
    }

    #[test]
    fn aggregate_ipc_weights_by_cycles() {
        let s = RunSeries {
            quanta: vec![q(0, 100, 100), q(1, 300, 900)],
            switches: vec![],
        };
        // (100+900)/(100+300) = 2.5, not the mean of 1.0 and 3.0.
        assert!((s.aggregate_ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_zero() {
        assert_eq!(RunSeries::default().aggregate_ipc(), 0.0);
        assert_eq!(RunSeries::default().switch_rate(), 0.0);
        assert_eq!(RunSeries::default().benign_fraction(), None);
    }

    #[test]
    fn benign_fraction_ignores_unjudged() {
        let s = RunSeries {
            quanta: vec![q(0, 1, 1)],
            switches: vec![
                SwitchEvent {
                    quantum: 0,
                    from: "A".into(),
                    to: "B".into(),
                    benign: Some(true),
                },
                SwitchEvent {
                    quantum: 1,
                    from: "B".into(),
                    to: "A".into(),
                    benign: Some(false),
                },
                SwitchEvent {
                    quantum: 2,
                    from: "A".into(),
                    to: "B".into(),
                    benign: None,
                },
            ],
        };
        assert_eq!(s.judged_switches(), 2);
        assert_eq!(s.benign_fraction(), Some(0.5));
        assert_eq!(s.switch_rate(), 3.0);
    }
}

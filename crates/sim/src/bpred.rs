//! Branch prediction: McFarling-style tournament (bimodal + gshare with a
//! per-pc chooser), BTB, per-thread RAS — the Alpha 21264-era design.
//!
//! All direction tables and the BTB are shared by the hardware contexts
//! (as in real SMT implementations and in \[20\]); each thread keeps its own
//! global-history register and return-address stack. Sharing matters: a
//! control-intensive thread degrades its neighbours' prediction accuracy,
//! one of the interference channels BRCOUNT-style policies respond to.
//!
//! Why a tournament and not plain gshare: with eight unrelated threads the
//! global history a branch sees is close to noise, and a pure
//! history-indexed predictor degenerates toward a coin flip (we measured
//! 50%). The pc-indexed bimodal component is immune to that, and the
//! chooser learns per-site which component to trust — exactly the problem
//! the 21264's tournament was built for.
//!
//! Training discipline (documented simplification): the per-thread history
//! register is updated at *fetch* — with the architectural outcome for
//! correct-path branches and with the prediction for wrong-path ones, and
//! repaired on squash — while the tables are trained at *resolve*, for
//! correct-path branches only.

use crate::config::SimConfig;
use smt_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::{BranchKind, Tid, MAX_HW_CONTEXTS};

/// Outcome of predicting one branch at fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Whether the BTB/RAS produced a target for a predicted-taken branch.
    /// A predicted-taken branch without a target breaks fetch for the cycle.
    pub target_known: bool,
    /// PHT index used for the direction prediction (conditionals only).
    /// Must be passed back to [`BranchPredictor::train`] at resolve so the
    /// update hits the entry that made the prediction — by resolve time the
    /// history register has moved on.
    pub pht_index: u32,
    /// Global-history register value *before* this branch updated it. On a
    /// misprediction the machine passes this to
    /// [`BranchPredictor::repair_history`]; without the repair, wrong-path
    /// branches leave garbage bits in the history, the same static branch
    /// stops seeing repeatable contexts, and gshare degenerates to a coin
    /// flip (observed: 49.7% mispredict rate before this mechanism existed).
    pub history_at_fetch: u64,
}

/// Shared predictor state plus per-thread histories.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    /// gshare 2-bit saturating counters, initialized weakly-taken.
    pht: Vec<u8>,
    /// Bimodal (pc-indexed) 2-bit counters.
    bimodal: Vec<u8>,
    /// Chooser: >=2 trusts gshare, <2 trusts bimodal. Starts at bimodal
    /// (0b01) because a cold gshare in a noisy-history SMT is worthless.
    chooser: Vec<u8>,
    pht_mask: u64,
    history_mask: u64,
    /// Per-thread global history registers.
    history: [u64; MAX_HW_CONTEXTS],
    /// Direct-mapped BTB: tag per entry (`u64::MAX` = invalid).
    btb_tags: Vec<u64>,
    btb_mask: u64,
    /// Per-thread return address stacks (we only track depth validity; the
    /// workload generator guarantees return targets, so a non-empty RAS
    /// predicts correctly and an empty RAS mispredicts).
    ras_depth: [usize; MAX_HW_CONTEXTS],
    ras_max: usize,
    // statistics
    pub lookups: u64,
    pub btb_misses: u64,
}

impl BranchPredictor {
    pub fn new(cfg: &SimConfig) -> Self {
        let pht_len = 1usize << cfg.gshare_bits;
        BranchPredictor {
            pht: vec![2; pht_len], // weakly taken
            bimodal: vec![2; pht_len],
            chooser: vec![1; pht_len], // weakly bimodal
            pht_mask: (pht_len - 1) as u64,
            history_mask: (1u64 << cfg.history_bits) - 1,
            history: [0; MAX_HW_CONTEXTS],
            btb_tags: vec![u64::MAX; cfg.btb_entries],
            btb_mask: (cfg.btb_entries - 1) as u64,
            ras_depth: [0; MAX_HW_CONTEXTS],
            ras_max: cfg.ras_depth,
            lookups: 0,
            btb_misses: 0,
        }
    }

    /// Entries in the PHT: every [`Prediction::pht_index`] is below it.
    pub(crate) fn pht_len(&self) -> usize {
        self.pht.len()
    }

    #[inline]
    fn pht_index(&self, tid: Tid, pc: u64) -> usize {
        (((pc >> 2) ^ self.history[tid.idx()]) & self.pht_mask) as usize
    }

    #[inline]
    fn pc_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.pht_mask) as usize
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.btb_mask) as usize
    }

    fn btb_lookup_insert(&mut self, pc: u64) -> bool {
        let i = self.btb_index(pc);
        let tag = pc >> 2;
        if self.btb_tags[i] == tag {
            true
        } else {
            self.btb_tags[i] = tag; // allocate on miss (trained at first sight)
            self.btb_misses += 1;
            false
        }
    }

    /// Predict the branch at `pc` for thread `tid` at fetch time.
    ///
    /// `kind` selects the mechanism; `actual_taken` is used only to push the
    /// architecturally correct direction into the history register for
    /// correct-path branches (`on_correct_path`).
    pub fn predict(
        &mut self,
        tid: Tid,
        pc: u64,
        kind: BranchKind,
        actual_taken: bool,
        on_correct_path: bool,
    ) -> Prediction {
        self.lookups += 1;
        let history_at_fetch = self.history[tid.idx()];
        let pred = match kind {
            BranchKind::Conditional => {
                let idx = self.pht_index(tid, pc);
                let pci = self.pc_index(pc);
                let g = self.pht[idx] >= 2;
                let b = self.bimodal[pci] >= 2;
                let taken = if self.chooser[pci] >= 2 { g } else { b };
                let target_known = if taken {
                    self.btb_lookup_insert(pc)
                } else {
                    true
                };
                Prediction {
                    taken,
                    target_known,
                    pht_index: idx as u32,
                    history_at_fetch,
                }
            }
            BranchKind::Unconditional => Prediction {
                taken: true,
                target_known: self.btb_lookup_insert(pc),
                pht_index: 0,
                history_at_fetch,
            },
            BranchKind::Call => {
                let t = self.ras_depth[tid.idx()];
                self.ras_depth[tid.idx()] = (t + 1).min(self.ras_max);
                Prediction {
                    taken: true,
                    target_known: self.btb_lookup_insert(pc),
                    pht_index: 0,
                    history_at_fetch,
                }
            }
            BranchKind::Return => {
                let d = &mut self.ras_depth[tid.idx()];
                let known = *d > 0;
                *d = d.saturating_sub(1);
                // An empty RAS means the target is unknown: fetch break and,
                // as we model it, a misprediction discovered at resolve.
                Prediction {
                    taken: true,
                    target_known: known,
                    pht_index: 0,
                    history_at_fetch,
                }
            }
        };
        // Speculative history update: actual outcome when the fetcher is on
        // the correct path (it will not be rewound), prediction otherwise.
        if kind == BranchKind::Conditional {
            let dir = if on_correct_path {
                actual_taken
            } else {
                pred.taken
            };
            let h = &mut self.history[tid.idx()];
            *h = ((*h << 1) | dir as u64) & self.history_mask;
        }
        pred
    }

    /// Restore thread `tid`'s global history after a squash: the register is
    /// rewound to the mispredicted branch's fetch-time value and, for
    /// conditional branches, the architectural outcome is shifted in.
    pub fn repair_history(&mut self, tid: Tid, history_at_fetch: u64, outcome: Option<bool>) {
        let h = match outcome {
            Some(taken) => ((history_at_fetch << 1) | taken as u64) & self.history_mask,
            None => history_at_fetch & self.history_mask,
        };
        self.history[tid.idx()] = h;
    }

    /// Serialize the full predictor state (tables, histories, RAS depths,
    /// statistics) for checkpointing.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        self.pht.encode(w);
        self.bimodal.encode(w);
        self.chooser.encode(w);
        w.u64(self.pht_mask);
        w.u64(self.history_mask);
        self.history.encode(w);
        self.btb_tags.encode(w);
        w.u64(self.btb_mask);
        self.ras_depth.encode(w);
        w.usize(self.ras_max);
        w.u64(self.lookups);
        w.u64(self.btb_misses);
    }

    /// Rebuild from [`Self::encode_into`] bytes. Only a predictor that
    /// indexes inside its own tables decodes: each mask is its table's
    /// length − 1, counters are 2-bit, histories fit their mask and RAS
    /// depths their maximum. [`Self::check_for`] then holds the sizes to
    /// the machine's config.
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        let pht: Vec<u8> = Vec::decode(r)?;
        let bimodal: Vec<u8> = Vec::decode(r)?;
        let chooser: Vec<u8> = Vec::decode(r)?;
        if bimodal.len() != pht.len() || chooser.len() != pht.len() {
            return Err(CodecError::Invalid("predictor table sizes disagree".into()));
        }
        let p = BranchPredictor {
            pht,
            bimodal,
            chooser,
            pht_mask: r.u64()?,
            history_mask: r.u64()?,
            history: <[u64; MAX_HW_CONTEXTS]>::decode(r)?,
            btb_tags: Vec::decode(r)?,
            btb_mask: r.u64()?,
            ras_depth: <[usize; MAX_HW_CONTEXTS]>::decode(r)?,
            ras_max: r.usize()?,
            lookups: r.u64()?,
            btb_misses: r.u64()?,
        };
        p.check_tables().map_err(CodecError::Invalid)?;
        Ok(p)
    }

    /// The first way this predictor could index or count outside its own
    /// tables.
    fn check_tables(&self) -> Result<(), String> {
        for (table, mask, len) in [
            ("PHT", self.pht_mask, self.pht.len()),
            ("BTB", self.btb_mask, self.btb_tags.len()),
        ] {
            if !len.is_power_of_two() || mask != len as u64 - 1 {
                return Err(format!(
                    "predictor {table} mask {mask:#x} does not fit its {len} entries"
                ));
            }
        }
        if self.history_mask & self.history_mask.wrapping_add(1) != 0 {
            return Err(format!(
                "predictor history mask {:#x} is not a run of low bits",
                self.history_mask
            ));
        }
        for (table, counters) in [
            ("PHT", &self.pht),
            ("bimodal", &self.bimodal),
            ("chooser", &self.chooser),
        ] {
            if let Some(i) = counters.iter().position(|&c| c > 3) {
                return Err(format!(
                    "predictor {table} counter {i} is {}, over 3",
                    counters[i]
                ));
            }
        }
        if let Some(t) = self
            .history
            .iter()
            .position(|h| h & !self.history_mask != 0)
        {
            return Err(format!(
                "predictor history of T{t} {:#x} is outside its mask {:#x}",
                self.history[t], self.history_mask
            ));
        }
        if let Some(t) = self.ras_depth.iter().position(|&d| d > self.ras_max) {
            return Err(format!(
                "predictor RAS depth of T{t} {} is over its maximum {}",
                self.ras_depth[t], self.ras_max
            ));
        }
        Ok(())
    }

    /// Is this predictor sized as [`Self::new`] sizes one for `cfg`?
    /// Returns the first size that disagrees.
    pub(crate) fn check_for(&self, cfg: &SimConfig) -> Result<(), String> {
        let history_mask = 1u64
            .checked_shl(cfg.history_bits)
            .map(|h| h - 1)
            .ok_or_else(|| format!("history_bits {} is over 63", cfg.history_bits))?;
        for (what, got, want) in [
            (
                "PHT entries",
                self.pht.len() as u64,
                1u64 << cfg.gshare_bits,
            ),
            (
                "BTB entries",
                self.btb_tags.len() as u64,
                cfg.btb_entries as u64,
            ),
            ("history mask", self.history_mask, history_mask),
            ("RAS depth", self.ras_max as u64, cfg.ras_depth as u64),
        ] {
            if got != want {
                return Err(format!(
                    "predictor {what} {got:#x} is not the config's {want:#x}"
                ));
            }
        }
        Ok(())
    }

    /// Train the direction predictor at branch resolution (correct path
    /// only). `pht_index` is the gshare index the fetch-time prediction
    /// used; the pc-indexed tables are recomputed from `pc`.
    pub fn train(&mut self, pc: u64, pht_index: u32, taken: bool) {
        #[inline]
        fn bump(c: &mut u8, up: bool) {
            if up {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        let pci = self.pc_index(pc);
        let g_correct = (self.pht[pht_index as usize] >= 2) == taken;
        let b_correct = (self.bimodal[pci] >= 2) == taken;
        // Chooser trains only when the components disagree.
        if g_correct != b_correct {
            bump(&mut self.chooser[pci], g_correct);
        }
        bump(&mut self.pht[pht_index as usize], taken);
        bump(&mut self.bimodal[pci], taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred() -> BranchPredictor {
        BranchPredictor::new(&SimConfig::default())
    }

    const T0: Tid = Tid(0);

    #[test]
    fn learns_always_taken() {
        let mut p = pred();
        let pc = 0x400;
        for _ in 0..8 {
            let pr = p.predict(T0, pc, BranchKind::Conditional, true, true);
            p.train(pc, pr.pht_index, true);
        }
        let pr = p.predict(T0, pc, BranchKind::Conditional, true, true);
        assert!(pr.taken);
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = pred();
        let pc = 0x404;
        for _ in 0..8 {
            let pr = p.predict(T0, pc, BranchKind::Conditional, false, true);
            p.train(pc, pr.pht_index, false);
        }
        let pr = p.predict(T0, pc, BranchKind::Conditional, false, true);
        assert!(!pr.taken);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = pred();
        let pc = 0x800;
        let mut outcome = false;
        // Train a strict T/N alternation: gshare separates the two history
        // contexts, so after warmup predictions should track the pattern.
        let mut correct = 0;
        for i in 0..400 {
            outcome = !outcome;
            let pr = p.predict(T0, pc, BranchKind::Conditional, outcome, true);
            if i >= 200 && pr.taken == outcome {
                correct += 1;
            }
            p.train(pc, pr.pht_index, outcome);
        }
        assert!(
            correct > 190,
            "gshare failed to learn alternation: {correct}/200"
        );
    }

    #[test]
    fn btb_misses_then_hits() {
        let mut p = pred();
        let first = p.predict(T0, 0x1000, BranchKind::Unconditional, true, true);
        assert!(!first.target_known);
        let second = p.predict(T0, 0x1000, BranchKind::Unconditional, true, true);
        assert!(second.target_known);
    }

    #[test]
    fn ras_tracks_call_return() {
        let mut p = pred();
        let r0 = p.predict(T0, 0x2000, BranchKind::Return, true, true);
        assert!(!r0.target_known, "empty RAS cannot predict a return");
        p.predict(T0, 0x2004, BranchKind::Call, true, true);
        let r1 = p.predict(T0, 0x2008, BranchKind::Return, true, true);
        assert!(r1.target_known);
        let r2 = p.predict(T0, 0x200C, BranchKind::Return, true, true);
        assert!(!r2.target_known, "RAS exhausted again");
    }

    #[test]
    fn threads_have_separate_histories() {
        let mut p = pred();
        let pc = 0xC00;
        // Train thread 0 toward taken with a long taken history.
        for _ in 0..50 {
            let pr = p.predict(Tid(0), pc, BranchKind::Conditional, true, true);
            p.train(pc, pr.pht_index, true);
        }
        // Thread 1 with an untouched (zero) history indexes a different PHT
        // entry in general; at minimum its RAS/history state is independent.
        assert_eq!(p.history[1], 0);
        assert_ne!(p.history[0], 0);
    }

    /// `p` encoded and decoded again.
    fn roundtrip(p: &BranchPredictor) -> Result<BranchPredictor, CodecError> {
        let mut w = ByteWriter::new();
        p.encode_into(&mut w);
        BranchPredictor::decode_from(&mut ByteReader::new(&w.into_bytes()))
    }

    #[test]
    fn decode_rejects_a_predictor_that_indexes_outside_its_tables() {
        let mut warm = pred();
        for i in 0..500u64 {
            let pc = 0x4000 + 4 * (i % 97);
            let pr = warm.predict(
                Tid((i % 3) as u8),
                pc,
                BranchKind::Conditional,
                i % 5 < 3,
                true,
            );
            warm.train(pc, pr.pht_index, i % 5 < 3);
            warm.predict(Tid(1), pc + 8, BranchKind::Call, true, true);
        }
        assert!(roundtrip(&warm).is_ok());
        type Mutation = (&'static str, fn(&mut BranchPredictor));
        let table: [Mutation; 8] = [
            ("PHT mask", |p| p.pht_mask = (1 << 20) - 1),
            ("PHT mask", |p| p.pht_mask >>= 1),
            ("BTB mask", |p| p.btb_mask = 2 * p.btb_mask + 1),
            ("history mask", |p| p.history_mask = 0b1011),
            ("PHT counter", |p| p.pht[5] = 4),
            ("chooser counter", |p| p.chooser[0] = u8::MAX),
            ("history of T2", |p| p.history[2] = p.history_mask + 1),
            ("RAS depth of T1", |p| p.ras_depth[1] = p.ras_max + 1),
        ];
        for (what, mutate) in table {
            let mut p = warm.clone();
            mutate(&mut p);
            match roundtrip(&p) {
                Err(CodecError::Invalid(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: decoded {:?}", other.map(|_| "a predictor")),
            }
        }
    }

    #[test]
    fn check_for_names_the_size_that_disagrees() {
        let cfg = SimConfig::default();
        let p = BranchPredictor::new(&cfg);
        assert_eq!(p.check_for(&cfg), Ok(()));
        for (what, other) in [
            (
                "PHT entries",
                SimConfig {
                    gshare_bits: cfg.gshare_bits + 1,
                    ..cfg.clone()
                },
            ),
            (
                "BTB entries",
                SimConfig {
                    btb_entries: cfg.btb_entries / 2,
                    ..cfg.clone()
                },
            ),
            (
                "history mask",
                SimConfig {
                    history_bits: cfg.history_bits - 1,
                    ..cfg.clone()
                },
            ),
            (
                "RAS depth",
                SimConfig {
                    ras_depth: cfg.ras_depth + 1,
                    ..cfg.clone()
                },
            ),
            (
                "history_bits",
                SimConfig {
                    history_bits: 64,
                    ..cfg.clone()
                },
            ),
        ] {
            let msg = p.check_for(&other).expect_err(what);
            assert!(msg.contains(what), "{what}: {msg}");
        }
    }

    #[test]
    fn shared_pht_causes_interference() {
        // Tiny table to force collisions.
        let cfg = SimConfig {
            gshare_bits: 4,
            history_bits: 2,
            ..Default::default()
        };
        let mut p = BranchPredictor::new(&cfg);
        // Thread 0 trains "taken" over every entry it touches; thread 1
        // trains the aliased entries "not taken"; accuracy of thread 0 drops.
        let mut t0_correct_alone = 0;
        for i in 0..64 {
            let pc = 0x4000 + i * 4;
            let pr = p.predict(Tid(0), pc, BranchKind::Conditional, true, true);
            if pr.taken {
                t0_correct_alone += 1;
            }
            p.train(pc, pr.pht_index, true);
            // Interfering thread trains the same table not-taken.
            let pr1 = p.predict(Tid(1), pc, BranchKind::Conditional, false, true);
            p.train(pc, pr1.pht_index, false);
            p.train(pc, pr1.pht_index, false);
        }
        // With an adversary hammering not-taken twice per round, thread 0
        // cannot stay saturated-taken everywhere.
        assert!(t0_correct_alone < 64, "no interference observed");
    }
}

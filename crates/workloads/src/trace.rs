//! The trace-replay micro-op stream.
//!
//! [`TraceStream`] is the second backend behind the [`UopStream`]
//! facade: where [`SynthStream`](crate::stream::SynthStream) *generates*
//! ops from a statistical profile, this replays ops recorded in an
//! `SMTTRACE` container (see `smt_isa::tracefile`). The contract is the
//! same in every respect the machine can observe — `current_pc()` peeks
//! the next op, `next_uop()` consumes it, `generated()` counts
//! consumption, and the state codec round-trips to a bit-identical
//! future — so checkpointing, the warm pool and batched lockstep
//! stepping work unchanged over traces.
//!
//! A trace wraps cyclically when exhausted: streams are infinite by
//! contract (the machine never asks "is there more?"), and a wrapped
//! replay stays deterministic. Capture sizing keeps pinned runs
//! comfortably inside the recorded span, so conformance fixtures never
//! actually wrap. The same cyclic replay serves the machine microtests'
//! hand-written op sequences ([`UopStream::scripted`]).

use smt_isa::codec::{self, ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::tracefile::TraceFile;
use smt_isa::{AppProfile, MicroOp};
use std::sync::Arc;

use crate::stream::UopStream;

/// Replays one thread's recorded op sequence cyclically.
///
/// The op vector is `Arc`-shared: cloning a stream (the warm pool and
/// the batch stepper clone machines freely) costs two pointer bumps,
/// not a trace copy.
#[derive(Clone, Debug)]
pub struct TraceStream {
    profile: Arc<AppProfile>,
    addr_base: u64,
    ops: Arc<Vec<MicroOp>>,
    /// Index of the next op to hand out (always `< ops.len()`).
    pos: usize,
    /// Total ops consumed — keeps counting across wraps, mirroring the
    /// synthetic `generated` counter.
    consumed: u64,
}

impl TraceStream {
    /// Replay `ops` for a thread with the given identity. Panics on an
    /// empty op list (a stream must always have a next op to peek).
    pub fn replay(profile: Arc<AppProfile>, addr_base: u64, ops: Arc<Vec<MicroOp>>) -> Self {
        assert!(!ops.is_empty(), "empty trace");
        TraceStream {
            profile,
            addr_base,
            ops,
            pos: 0,
            consumed: 0,
        }
    }

    /// Load thread `tid` of a parsed trace container.
    pub fn from_file(file: &TraceFile, tid: usize) -> Result<Self, CodecError> {
        let meta = file
            .meta()
            .threads
            .get(tid)
            .ok_or_else(|| {
                CodecError::Invalid(format!(
                    "thread {tid} out of range ({} threads)",
                    file.n_threads()
                ))
            })?
            .clone();
        let ops = file.read_thread(tid)?;
        check_ops(&ops)?;
        Ok(TraceStream::replay(
            Arc::new(meta.profile),
            meta.addr_base,
            Arc::new(ops),
        ))
    }

    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    pub fn addr_base(&self) -> u64 {
        self.addr_base
    }

    pub fn generated(&self) -> u64 {
        self.consumed
    }

    /// Number of recorded ops before the replay wraps.
    pub fn trace_len(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Program counter of the next op to be replayed.
    pub fn current_pc(&self) -> u64 {
        self.ops[self.pos].pc
    }

    pub fn next_uop(&mut self) -> MicroOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        self.consumed += 1;
        op
    }

    /// Jump the replay cursor so the stream behaves as if `n` ops had
    /// already been consumed — `fast_forward_to(n)` is equivalent to `n`
    /// calls of [`next_uop`](Self::next_uop), which the conformance suite
    /// pins. Chunk-level skipping happens in `TraceFile::read_thread_from`;
    /// here the ops are already in memory and only the cursor moves.
    pub fn fast_forward_to(&mut self, n: u64) {
        self.consumed = n;
        self.pos = (n % self.ops.len() as u64) as usize;
    }

    /// Serialize replay state. The recorded ops travel with the state so
    /// a checkpoint restores with no external trace file present.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        codec::encode_json(w, self.profile.as_ref());
        w.u64(self.addr_base);
        self.ops.as_ref().encode(w);
        w.u64(self.consumed);
    }

    /// Rebuild a stream from [`encode_state`](Self::encode_state) bytes.
    /// Only a state a machine can run decodes: the profile must pass
    /// [`AppProfile::validate`] and every op [`MicroOp::is_well_formed`].
    pub fn decode_state(r: &mut ByteReader) -> Result<Self, CodecError> {
        let profile: AppProfile = codec::decode_json(r)?;
        profile
            .validate()
            .map_err(|e| CodecError::Invalid(format!("trace stream profile: {e}")))?;
        let addr_base = r.u64()?;
        let ops: Vec<MicroOp> = Vec::decode(r)?;
        if ops.is_empty() {
            return Err(CodecError::Invalid("trace stream has no ops".into()));
        }
        check_ops(&ops)?;
        let consumed = r.u64()?;
        let pos = (consumed % ops.len() as u64) as usize;
        Ok(TraceStream {
            profile: Arc::new(profile),
            addr_base,
            ops: Arc::new(ops),
            pos,
            consumed,
        })
    }
}

/// `Err` naming the first op that is not [`MicroOp::is_well_formed`]: the
/// machine would panic on it.
fn check_ops(ops: &[MicroOp]) -> Result<(), CodecError> {
    match ops.iter().position(|op| !op.is_well_formed()) {
        Some(i) => Err(CodecError::Invalid(format!(
            "trace op {i} is ill-formed: {:?}",
            ops[i]
        ))),
        None => Ok(()),
    }
}

/// Build one [`UopStream`] per recorded thread of a parsed trace — the
/// replay-side mirror of `Mix::streams`.
pub fn streams_from_trace(file: &TraceFile) -> Result<Vec<UopStream>, CodecError> {
    (0..file.n_threads())
        .map(|tid| TraceStream::from_file(file, tid).map(UopStream::Trace))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SynthStream;
    use smt_isa::tracefile::TraceWriter;

    fn captured(n: usize) -> (Arc<AppProfile>, Vec<MicroOp>) {
        let p = Arc::new(crate::app("gzip"));
        let mut s = SynthStream::new(Arc::clone(&p), 7, 0x1_0000_0000);
        let ops = (0..n).map(|_| s.next_uop()).collect();
        (p, ops)
    }

    #[test]
    fn replay_reproduces_captured_ops_and_wraps() {
        let (p, ops) = captured(500);
        let mut t = TraceStream::replay(Arc::clone(&p), 0x1_0000_0000, Arc::new(ops.clone()));
        assert_eq!(t.current_pc(), ops[0].pc);
        for op in &ops {
            assert_eq!(t.next_uop(), *op);
        }
        assert_eq!(t.generated(), 500);
        assert_eq!(t.next_uop(), ops[0], "trace must wrap cyclically");
    }

    #[test]
    fn fast_forward_equals_stepping() {
        let (p, ops) = captured(300);
        let ops = Arc::new(ops);
        for n in [0u64, 1, 123, 299, 300, 301, 750] {
            let mut a = TraceStream::replay(Arc::clone(&p), 0, Arc::clone(&ops));
            let mut b = a.clone();
            for _ in 0..n {
                a.next_uop();
            }
            b.fast_forward_to(n);
            assert_eq!(a.generated(), b.generated(), "at {n}");
            assert_eq!(a.current_pc(), b.current_pc(), "at {n}");
            for _ in 0..50 {
                assert_eq!(a.next_uop(), b.next_uop(), "after {n}");
            }
        }
    }

    #[test]
    fn state_roundtrips_mid_replay() {
        let (p, ops) = captured(400);
        let mut a = TraceStream::replay(p, 0x2_0000_0000, Arc::new(ops));
        for _ in 0..157 {
            a.next_uop();
        }
        let mut w = ByteWriter::new();
        a.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut b = TraceStream::decode_state(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(b.generated(), a.generated());
        for _ in 0..400 {
            assert_eq!(a.next_uop(), b.next_uop());
        }
    }

    /// Encode a stream's state with `ops` and `profile` spliced in.
    fn state_with(profile: &AppProfile, ops: &[MicroOp]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        codec::encode_json(&mut w, profile);
        w.u64(0x1_0000_0000);
        ops.to_vec().encode(&mut w);
        w.u64(3);
        w.into_bytes()
    }

    #[test]
    fn ill_formed_ops_and_bad_profiles_are_errors() {
        let (p, mut ops) = captured(64);
        let decode = |p: &AppProfile, ops: &[MicroOp]| {
            TraceStream::decode_state(&mut ByteReader::new(&state_with(p, ops)))
        };
        assert!(decode(&p, &ops).is_ok());
        let load = ops
            .iter()
            .position(|op| op.kind == smt_isa::OpKind::Load)
            .expect("the capture has a load");
        ops[load].mem = None;
        match decode(&p, &ops) {
            Err(CodecError::Invalid(msg)) => {
                assert!(msg.contains(&format!("op {load}")), "{msg}")
            }
            other => panic!("a load without an address decoded: {other:?}"),
        }
        let (_, ops) = captured(64);
        let mut bad = (*p).clone();
        bad.load_frac = 2.0;
        match decode(&bad, &ops) {
            Err(CodecError::Invalid(msg)) => assert!(msg.contains("load_frac"), "{msg}"),
            other => panic!("a profile with load_frac 2 decoded: {other:?}"),
        }
    }

    #[test]
    fn from_file_rejects_an_ill_formed_op() {
        let (p, mut ops) = captured(100);
        let bad = (40..)
            .find(|&i| ops[i].dst.is_some())
            .expect("an op with a destination");
        ops[bad].dst = None;
        let mut w = TraceWriter::new("unit", 7, 1024);
        w.add_thread(&p, 0x1_0000_0000, &ops);
        let file = TraceFile::parse(w.finish()).expect("parse");
        match TraceStream::from_file(&file, 0) {
            Err(CodecError::Invalid(msg)) => assert!(msg.contains(&format!("op {bad}")), "{msg}"),
            other => panic!("an ill-formed recorded op loaded: {other:?}"),
        }
    }

    #[test]
    fn facade_state_tags_distinguish_backends() {
        let (p, ops) = captured(64);
        let synth = UopStream::new(Arc::clone(&p), 3, 0x1_0000_0000);
        let trace = UopStream::Trace(TraceStream::replay(p, 0x1_0000_0000, Arc::new(ops)));
        for s in [synth, trace] {
            let mut w = ByteWriter::new();
            s.encode_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let mut back = UopStream::decode_state(&mut r).expect("decode");
            r.finish().expect("fully consumed");
            assert_eq!(back.generated(), s.generated());
            assert_eq!(back.current_pc(), s.current_pc());
            assert_eq!(
                matches!(back, UopStream::Trace(_)),
                matches!(s, UopStream::Trace(_))
            );
            back.next_uop();
        }
        // An unknown backend tag is a typed error.
        let bad = [9u8, 0, 0];
        assert!(matches!(
            UopStream::decode_state(&mut ByteReader::new(&bad)),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn streams_from_trace_rebuilds_all_threads() {
        let (p, ops_a) = captured(200);
        let mut s2 = SynthStream::new(Arc::new(crate::app("mcf")), 9, 0x2_0000_0000);
        let ops_b: Vec<MicroOp> = (0..150).map(|_| s2.next_uop()).collect();
        let mut w = TraceWriter::new("unit", 7, 1024);
        w.add_thread(&p, 0x1_0000_0000, &ops_a);
        w.add_thread(s2.profile(), 0x2_0000_0000, &ops_b);
        let file = TraceFile::parse(w.finish()).expect("parse");
        let mut streams = streams_from_trace(&file).expect("streams");
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].profile().name, "gzip");
        assert_eq!(streams[1].addr_base(), 0x2_0000_0000);
        for op in &ops_a {
            assert_eq!(streams[0].next_uop(), *op);
        }
        for op in &ops_b {
            assert_eq!(streams[1].next_uop(), *op);
        }
    }
}

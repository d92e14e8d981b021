//! Pins the statistical generator's output: an FNV-1a-64 over the codec
//! bytes (kind, pc, registers, memory access, branch) of the first 200,000
//! micro-ops of every application's stream at seed 42. Any change to the
//! generator that moves one op, one register or one address changes its
//! app's hash, so a rewrite of the generator's arithmetic must keep every
//! line below unchanged.

use smt_isa::codec::{fnv1a_64, ByteWriter, Codec};
use smt_workloads::{app, app_names, thread_addr_base, UopStream};
use std::sync::Arc;

const OPS: usize = 200_000;

/// `(app, FNV-1a-64 of its first OPS ops)`, seed 42, thread 0's base.
const GOLDEN: [(&str, u64); 21] = [
    ("gzip", 0xe7233a3b22b85e2c),
    ("vpr", 0xb308367afde58e70),
    ("gcc", 0x20b242752e2ce245),
    ("mcf", 0xb97c256c55dada4f),
    ("crafty", 0x97fad28f8ae2512c),
    ("parser", 0x9de3173a53dfd384),
    ("perlbmk", 0xa3c24a45cc459659),
    ("gap", 0x401b0a298c2fe3c7),
    ("vortex", 0x24a54d326a121d63),
    ("bzip2", 0x1b10cbc76e8932b0),
    ("twolf", 0xd710a48d0dfdb347),
    ("wupwise", 0x2b686b936e3f230b),
    ("swim", 0x5d60b0640dd78c61),
    ("mgrid", 0x1e22fca1a1472d97),
    ("applu", 0x9d537f8cbde3382f),
    ("mesa", 0x6379d1d7351cf230),
    ("art", 0x9042ea2a12403361),
    ("equake", 0x3ef6e106f1119307),
    ("ammp", 0x9a5363d54023d1e5),
    ("lucas", 0x1581967f92996958),
    ("apsi", 0x25dcd4871539011f),
];

fn stream_hash(name: &str) -> u64 {
    let mut s = UopStream::new(Arc::new(app(name)), 42, thread_addr_base(0));
    let mut w = ByteWriter::new();
    for _ in 0..OPS {
        s.next_uop().encode(&mut w);
    }
    fnv1a_64(w.as_bytes())
}

#[test]
fn golden_covers_every_app() {
    let names: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, app_names());
}

#[test]
fn every_app_stream_matches_its_golden_hash() {
    let got: Vec<(&str, u64)> = GOLDEN.iter().map(|(n, _)| (*n, stream_hash(n))).collect();
    for ((name, want), (_, hash)) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            *hash, *want,
            "{name}: stream hash {hash:#018x}, golden {want:#018x}; all: {got:#x?}"
        );
    }
}

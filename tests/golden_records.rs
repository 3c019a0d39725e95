//! Golden per-round records: every registry protocol's full round
//! history, pinned as one digest per (protocol, seed, fault plan).
//!
//! `golden_loads.rs` pins final loads and round counts only, so round
//! statistics that no final load depends on — `underloaded_bins`,
//! `unfilled_want`, `granted`, `max_load` — could drift unnoticed. Each
//! digest here folds in every `RoundRecord` field of every round, the
//! final `loads`, and `per_bin_received`. Sequential and a 3-lane pool
//! (chunk geometry lowered so the pool really fans out) must both hit
//! the same constant.
//!
//! A mismatch prints the full regenerated table; update the constants
//! only for an intentional, documented engine change.

use pba::core::wire::fnv1a;
use pba::core::MessageTracking;
use pba::prelude::*;
use pba::protocols::{protocol_names, run_by_name};

const SEEDS: [u64; 2] = [1, 2];

/// Under-, exactly- and over-loaded: m < n, m = n and m = 4n.
fn specs() -> [ProblemSpec; 3] {
    [
        ProblemSpec::new(1 << 10, 1 << 12).unwrap(),
        ProblemSpec::new(1 << 12, 1 << 12).unwrap(),
        ProblemSpec::new(1 << 12, 1 << 10).unwrap(),
    ]
}

/// A plan whose crashed bins exercise the engine's crash sweep of the
/// underload statistics. Run on the m < n spec only: at m ≥ n some
/// protocols' caps make crashes infeasible, and they would spend the
/// test's time looping to their round budget.
fn crash_plan() -> FaultPlan {
    FaultPlan::new(0xC0DE)
        .with_crashed_bins(0.05)
        .with_drop_prob(0.1)
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("single-choice/s0/p0/1", 0x3d32d1709ad25939),
    ("single-choice/s0/p0/2", 0xa5d59d3312c6eded),
    ("single-choice/s0/p1/1", 0x7e69e3c4f45f9790),
    ("single-choice/s0/p1/2", 0xb3ce2f6a2b570f41),
    ("fixed-threshold/s0/p0/1", 0xcbfa7c1d48add8ea),
    ("fixed-threshold/s0/p0/2", 0xefa559f994753607),
    ("fixed-threshold/s0/p1/1", 0x0a3b0493cc33959c),
    ("fixed-threshold/s0/p1/2", 0x8493cfc0cfeb64d8),
    ("parallel-two-choice/s0/p0/1", 0xdc5ec64cd3914219),
    ("parallel-two-choice/s0/p0/2", 0xd6b0cdb89c62d49f),
    ("parallel-two-choice/s0/p1/1", 0x22b1c6fa5150ff76),
    ("parallel-two-choice/s0/p1/2", 0x2781fe037e9e426b),
    ("threshold-heavy/s0/p0/1", 0x3d32d1709ad25939),
    ("threshold-heavy/s0/p0/2", 0xf94d6244729ffd02),
    ("threshold-heavy/s0/p1/1", 0xa9379434cabea8a6),
    ("threshold-heavy/s0/p1/2", 0x2da873eda16ac184),
    ("a-light/s0/p0/1", 0xcbfa7c1d48add8ea),
    ("a-light/s0/p0/2", 0x5ef1809cfc948b1e),
    ("a-light/s0/p1/1", 0x6cd48a899eff8a24),
    ("a-light/s0/p1/2", 0xb9f1ac5cc91bcbd6),
    ("collision/s0/p0/1", 0xdf3ccf8b91f50f87),
    ("collision/s0/p0/2", 0xe992b701c191fc65),
    ("collision/s0/p1/1", 0xc601d970a89c81ce),
    ("collision/s0/p1/2", 0xfee2fc1c171e8d73),
    ("stemann-heavy/s0/p0/1", 0xaa6b10e8626d799d),
    ("stemann-heavy/s0/p0/2", 0x8424c75b7b6c6cf2),
    ("stemann-heavy/s0/p1/1", 0x0a867b53e5e2478e),
    ("stemann-heavy/s0/p1/2", 0x84bc2dc17cc59bb8),
    ("adler-greedy/s0/p0/1", 0xdc5ec64cd3914219),
    ("adler-greedy/s0/p0/2", 0xd6b0cdb89c62d49f),
    ("adler-greedy/s0/p1/1", 0xffa174756a74338c),
    ("adler-greedy/s0/p1/2", 0xe0c8ed29c618878a),
    ("asymmetric/s0/p0/1", 0x646edeeff61fb0cc),
    ("asymmetric/s0/p0/2", 0xf0471556f71fe6ea),
    ("asymmetric/s0/p1/1", 0xe4e194e5713d740a),
    ("asymmetric/s0/p1/2", 0xecf0b696bb79717b),
    ("trivial-round-robin/s0/p0/1", 0x11968d40a11b4f65),
    ("trivial-round-robin/s0/p0/2", 0x11968d40a11b4f65),
    ("trivial-round-robin/s0/p1/1", 0x9dbf2726d0dc1918),
    ("trivial-round-robin/s0/p1/2", 0x9dbf2726d0dc1918),
    ("batched-two-choice/s0/p0/1", 0x03ee5a214a6e6ec9),
    ("batched-two-choice/s0/p0/2", 0x9f271f0d21790bad),
    ("batched-two-choice/s0/p1/1", 0xc275409ec3ded6fe),
    ("batched-two-choice/s0/p1/2", 0xc275409ec3ded6fe),
    ("kd-choice/s0/p0/1", 0x7c6632a9ed52818a),
    ("kd-choice/s0/p0/2", 0x237843ce06e14ffd),
    ("kd-choice/s0/p1/1", 0x59ccbb102012e20d),
    ("kd-choice/s0/p1/2", 0x88ab81978ca8cecc),
    ("kd-choice-36/s0/p0/1", 0xc392af7c7ab9742d),
    ("kd-choice-36/s0/p0/2", 0x81002842509b32d3),
    ("kd-choice-36/s0/p1/1", 0x2b789e42cf2c23a0),
    ("kd-choice-36/s0/p1/2", 0xe366278cd17a0aa5),
    ("estimated-average/s0/p0/1", 0x890da95d747c6699),
    ("estimated-average/s0/p0/2", 0x1fe6108c7eff781a),
    ("estimated-average/s0/p1/1", 0xfb168538a0d11ae1),
    ("estimated-average/s0/p1/2", 0xd08d3f6ad5d2a4a5),
    ("single-choice/s1/p0/1", 0x5b0f4443d533690e),
    ("single-choice/s1/p0/2", 0x8b04e59f5a609392),
    ("fixed-threshold/s1/p0/1", 0xcae7a773ca8176da),
    ("fixed-threshold/s1/p0/2", 0x14d9b0e5f5d64eed),
    ("parallel-two-choice/s1/p0/1", 0x461f95932f7047e4),
    ("parallel-two-choice/s1/p0/2", 0x472a2dcaa85ab2e3),
    ("threshold-heavy/s1/p0/1", 0xe77837663e05e342),
    ("threshold-heavy/s1/p0/2", 0xd721373195c8b840),
    ("a-light/s1/p0/1", 0xae83d0f202b32bf1),
    ("a-light/s1/p0/2", 0xfdc0df4a35fc2bd6),
    ("collision/s1/p0/1", 0x10a123b12282a39b),
    ("collision/s1/p0/2", 0xef87eef7be4def81),
    ("stemann-heavy/s1/p0/1", 0xaef81860e890fdb4),
    ("stemann-heavy/s1/p0/2", 0xdae91e102cb1219b),
    ("adler-greedy/s1/p0/1", 0xb4e0de7a0cf89ad7),
    ("adler-greedy/s1/p0/2", 0xf6ca6a8f8f9ad753),
    ("asymmetric/s1/p0/1", 0x7d5b565b01b4df29),
    ("asymmetric/s1/p0/2", 0xbe06548fda372e17),
    ("trivial-round-robin/s1/p0/1", 0xf5f77e193d030cc5),
    ("trivial-round-robin/s1/p0/2", 0xf5f77e193d030cc5),
    ("batched-two-choice/s1/p0/1", 0x7b8637bffd318bea),
    ("batched-two-choice/s1/p0/2", 0x9b5e498dac07ba66),
    ("kd-choice/s1/p0/1", 0xb2ca8531e4c00e6c),
    ("kd-choice/s1/p0/2", 0x4dc341aa287f440a),
    ("kd-choice-36/s1/p0/1", 0xa68b20398f631460),
    ("kd-choice-36/s1/p0/2", 0xad787f4ebf8ad478),
    ("estimated-average/s1/p0/1", 0x54b44e3720f4e6aa),
    ("estimated-average/s1/p0/2", 0x38c6f4428162aa34),
    ("single-choice/s2/p0/1", 0x0cfe60719dea8125),
    ("single-choice/s2/p0/2", 0x771f06a76a93f7d7),
    ("fixed-threshold/s2/p0/1", 0x466e24a24d025590),
    ("fixed-threshold/s2/p0/2", 0x37dad7e80808991d),
    ("parallel-two-choice/s2/p0/1", 0xcaf667196a693969),
    ("parallel-two-choice/s2/p0/2", 0x0a38a6d272480155),
    ("threshold-heavy/s2/p0/1", 0xa9619aee649189b9),
    ("threshold-heavy/s2/p0/2", 0xf2dda37cb26811bd),
    ("a-light/s2/p0/1", 0x445ae5f16cde6b04),
    ("a-light/s2/p0/2", 0x1dd5ab47e794bfe4),
    ("collision/s2/p0/1", 0x63644c436931306b),
    ("collision/s2/p0/2", 0x145c383affdfd25d),
    ("stemann-heavy/s2/p0/1", 0xa50d6b08f66e1efd),
    ("stemann-heavy/s2/p0/2", 0x0fcdbe01554f6de3),
    ("adler-greedy/s2/p0/1", 0xf627d13c26dd2bec),
    ("adler-greedy/s2/p0/2", 0xc4dab22bee7fb3fc),
    ("asymmetric/s2/p0/1", 0x5398f0af743fd719),
    ("asymmetric/s2/p0/2", 0xe025ed93efd806dc),
    ("trivial-round-robin/s2/p0/1", 0x91cedc0514b63740),
    ("trivial-round-robin/s2/p0/2", 0x91cedc0514b63740),
    ("batched-two-choice/s2/p0/1", 0x37ff3fea58571bd0),
    ("batched-two-choice/s2/p0/2", 0x1756ad705777764b),
    ("kd-choice/s2/p0/1", 0x49140c1c524bc846),
    ("kd-choice/s2/p0/2", 0x277e965aeea9d7ce),
    ("kd-choice-36/s2/p0/1", 0x840149a7cdb85273),
    ("kd-choice-36/s2/p0/2", 0x54d38f4870d97104),
    ("estimated-average/s2/p0/1", 0x3cfb0dbcebce9501),
    ("estimated-average/s2/p0/2", 0x26d7212fbe80aadf),
];

/// FNV-1a over the little-endian bytes of every word pushed.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn word(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        fnv1a(&self.0)
    }
}

fn digest(spec: ProblemSpec, name: &str, seed: u64, plan: Option<FaultPlan>, lanes: usize) -> u64 {
    let mut cfg = RunConfig::seeded(seed)
        .with_trace(true)
        .with_tracking(MessageTracking::PerBin);
    if lanes > 1 {
        cfg = cfg
            .with_executor(ExecutorKind::ParallelWith(lanes))
            .with_tuning(Tuning::fixed(256, 512));
    }
    if let Some(p) = plan {
        cfg = cfg.with_faults(p);
    }
    let mut d = Digest::default();
    match run_by_name(name, spec, cfg).expect("registry name") {
        // Some bounded-round protocols legitimately exhaust their budget
        // under crashes; pin the error instead.
        Err(e) => d.0.extend_from_slice(e.to_string().as_bytes()),
        Ok(out) => {
            let trace = out.trace.as_ref().expect("trace recorded");
            for r in trace.records() {
                for v in [
                    u64::from(r.round),
                    r.active_before,
                    r.requests,
                    r.granted,
                    r.committed,
                    r.wasted_grants,
                    u64::from(r.underloaded_bins),
                    r.unfilled_want,
                    u64::from(r.max_load),
                    r.messages.requests,
                    r.messages.responses,
                    r.messages.commits,
                ] {
                    d.word(v);
                }
            }
            d.word(u64::from(out.rounds));
            d.word(out.placed);
            for &l in &out.loads {
                d.word(u64::from(l));
            }
            for &r in out.per_bin_received.as_ref().expect("per-bin tracked") {
                d.word(r);
            }
        }
    }
    d.finish()
}

#[test]
fn round_records_match_golden_digests_on_every_executor() {
    let mut table = Vec::new();
    let mut mismatches = Vec::new();
    for (si, spec) in specs().into_iter().enumerate() {
        for &name in protocol_names() {
            let plans: &[Option<FaultPlan>] = if si == 0 {
                &[None, Some(crash_plan())]
            } else {
                &[None]
            };
            for (pi, &plan) in plans.iter().enumerate() {
                for seed in SEEDS {
                    let key = format!("{name}/s{si}/p{pi}/{seed}");
                    let serial = digest(spec, name, seed, plan, 1);
                    let pool = digest(spec, name, seed, plan, 3);
                    assert_eq!(serial, pool, "{key}: 3-lane pool diverged from serial");
                    let want = GOLDEN.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
                    if want != Some(serial) {
                        mismatches.push(format!("{key}: want {want:x?}, got {serial:#018x}"));
                    }
                    table.push(format!("    (\"{key}\", {serial:#018x}),"));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} digest(s) drifted:\n{}\nregenerated table:\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        table.join("\n")
    );
    assert_eq!(GOLDEN.len(), table.len(), "golden table has stale keys");
}

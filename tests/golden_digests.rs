//! Golden results: absolute digests of a fixed campaign grid.
//!
//! The other determinism tests compare the executor with itself (worker
//! counts, submission orders, cached against fresh artifacts), so a
//! hot-path rewrite that shifts a single RNG draw would pass every one
//! of them. This file pins results absolutely instead: it campaigns a
//! fixed grid through `run_suite_with_cache` (seed 2016, distance 64,
//! one worker) plus one application job, and compares each cell's
//! `SummaryValue::digest` with the committed [`GOLDEN`] table.
//!
//! The grid covers every relaxation channel:
//!
//! * all 28 shapes × {Titan, C2075} under `no-str-` and `sys-str+`;
//! * the 28 shapes on C2075 under `l1-str+` (incoherent L1);
//! * the 7 intra-block shapes on Titan under `shm+sys-str+` (shared
//!   window);
//! * `app K20 sys-str+ cbe-dot 2 7` through `JobSpec::execute`.
//!
//! A change that alters the model on purpose regenerates the table: the
//! failure message prints the recomputed one, ready to paste over
//! [`GOLDEN`], and `CHANGES.md` says why the results moved.

use gpu_wmm::core::cache::ArtifactCache;
use gpu_wmm::core::campaign::SummaryValue;
use gpu_wmm::core::suite::{run_suite_with_cache, SuiteConfig, SuiteStrategy};
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::Placement;
use gpu_wmm::server::JobSpec;
use gpu_wmm::sim::chip::Chip;
use std::collections::HashMap;

const SEED: u64 = 2016;
const DISTANCE: u32 = 64;
const ITERS: u32 = 40;
const APP_JOB: &str = "app K20 sys-str+ cbe-dot 2 7";

/// One suite call of the grid: shapes × chips × one column, at its own
/// execution count (stressed runs cost ~40× a native one).
struct Block {
    shapes: Vec<Shape>,
    chips: &'static [&'static str],
    column: SuiteStrategy,
    execs: u32,
}

fn blocks() -> Vec<Block> {
    let intra: Vec<Shape> = Shape::ALL
        .into_iter()
        .filter(|s| s.placement() == Placement::IntraBlock)
        .collect();
    assert_eq!(intra.len(), 7, "the catalogue's intra-block shapes");
    vec![
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["Titan", "C2075"],
            column: SuiteStrategy::native(),
            execs: 64,
        },
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["Titan", "C2075"],
            column: SuiteStrategy::sys_str_plus(ITERS),
            execs: 8,
        },
        Block {
            shapes: Shape::ALL.to_vec(),
            chips: &["C2075"],
            column: SuiteStrategy::l1_str_plus(ITERS),
            execs: 8,
        },
        Block {
            shapes: intra,
            chips: &["Titan"],
            column: SuiteStrategy::shared_sys_str_plus(ITERS),
            execs: 8,
        },
    ]
}

/// Campaign the whole grid: `(cell name, digest)` in a fixed order.
fn recompute() -> Vec<(String, u64)> {
    let cache = ArtifactCache::new();
    let mut out = Vec::new();
    for block in blocks() {
        let chips: Vec<Chip> = block
            .chips
            .iter()
            .map(|c| Chip::by_short(c).expect("known chip"))
            .collect();
        let cfg = SuiteConfig {
            distances: vec![DISTANCE],
            execs: block.execs,
            base_seed: SEED,
            workers: 1,
            ..SuiteConfig::default()
        };
        let cells = run_suite_with_cache(
            &block.shapes,
            &chips,
            std::slice::from_ref(&block.column),
            &cfg,
            &cache,
        );
        for c in cells {
            let name = format!("{}@{} {}", c.shape, c.chip, c.strategy);
            out.push((name, SummaryValue::Litmus(c.hist).digest()));
        }
    }
    let job: JobSpec = APP_JOB.parse().expect("valid job");
    let summary = job.execute(1, None).expect("the app job runs");
    out.push((APP_JOB.to_string(), summary.digest()));
    out
}

fn render(cells: &[(String, u64)]) -> String {
    let mut s = String::from("const GOLDEN: &[(&str, u64)] = &[\n");
    for (name, digest) in cells {
        s.push_str(&format!("    ({name:?}, 0x{digest:016x}),\n"));
    }
    s.push_str("];\n");
    s
}

#[test]
fn grid_digests_match_the_committed_table() {
    let cells = recompute();
    let golden: HashMap<&str, u64> = GOLDEN.iter().copied().collect();
    let mut drift = Vec::new();
    for (name, digest) in &cells {
        match golden.get(name.as_str()) {
            Some(&want) if want == *digest => {}
            Some(&want) => drift.push(format!("{name}: 0x{digest:016x}, table 0x{want:016x}")),
            None => drift.push(format!("{name}: 0x{digest:016x}, not in the table")),
        }
    }
    for (name, _) in GOLDEN {
        if !cells.iter().any(|(n, _)| n == name) {
            drift.push(format!("{name}: in the table, no longer in the grid"));
        }
    }
    assert!(
        drift.is_empty(),
        "{} of {} golden cells drifted:\n  {}\n\nrecomputed table:\n{}",
        drift.len(),
        GOLDEN.len(),
        drift.join("\n  "),
        render(&cells)
    );
}

/// Recorded before the allocation-free executor landed; every later
/// change must reproduce it bit for bit.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("MP@Titan no-str-", 0x6831327bf4cbf280),
    ("MP@C2075 no-str-", 0x63b2e56d18dbe3d4),
    ("LB@Titan no-str-", 0xb5f0e063fa1b0bd3),
    ("LB@C2075 no-str-", 0x105a6886bab0e599),
    ("SB@Titan no-str-", 0xa7ab546d2ecef2d1),
    ("SB@C2075 no-str-", 0x8a0dd80c30fd8f9b),
    ("S@Titan no-str-", 0xe5d14066c6d63c90),
    ("S@C2075 no-str-", 0xd929f9a6053f0410),
    ("R@Titan no-str-", 0x35baf543bbd348b3),
    ("R@C2075 no-str-", 0x931478631140b4ff),
    ("2+2W@Titan no-str-", 0x27fffd75198b8919),
    ("2+2W@C2075 no-str-", 0x3f002e0376d9ba51),
    ("WRC@Titan no-str-", 0x85c7440bd79dae84),
    ("WRC@C2075 no-str-", 0xe53ddea2d2c5e16e),
    ("RWC@Titan no-str-", 0x34c2584bbb81469f),
    ("RWC@C2075 no-str-", 0x0b3964a3962912bf),
    ("ISA2@Titan no-str-", 0x8f8a3879042fcca0),
    ("ISA2@C2075 no-str-", 0x03b360c682463b08),
    ("IRIW@Titan no-str-", 0x333f22d7a232e4fe),
    ("IRIW@C2075 no-str-", 0x7a3ee5af39cfae9d),
    ("CoRR@Titan no-str-", 0x137b991bbf893a20),
    ("CoRR@C2075 no-str-", 0xe544acf03335a460),
    ("CoWW@Titan no-str-", 0xe926a25c4b62347e),
    ("CoWW@C2075 no-str-", 0xe926a25c4b62347e),
    ("MP+fences@Titan no-str-", 0xa9155b5b2cfacc40),
    ("MP+fences@C2075 no-str-", 0x5e478195e4899d3e),
    ("SB+fences@Titan no-str-", 0xff9ad3579f07b3c5),
    ("SB+fences@C2075 no-str-", 0xd59c03ea4d49e35f),
    ("MP.shared@Titan no-str-", 0xe81538c3a1aba2a2),
    ("MP.shared@C2075 no-str-", 0xc86c0004702a3680),
    ("SB.shared@Titan no-str-", 0x90d8ee76b3a07aa1),
    ("SB.shared@C2075 no-str-", 0x742c7a15df518691),
    ("CoRR.shared@Titan no-str-", 0xe97798f778f1df30),
    ("CoRR.shared@C2075 no-str-", 0x7f79d8e3c38adce0),
    ("MP+CAS@Titan no-str-", 0xc4806a51ff34a638),
    ("MP+CAS@C2075 no-str-", 0xe7a03409a5922484),
    ("2+2W.exch@Titan no-str-", 0xd614c2d6c1b99edd),
    ("2+2W.exch@C2075 no-str-", 0x507afbb626b68f5d),
    ("CoAdd@Titan no-str-", 0x1442e3c36ebf4b83),
    ("CoAdd@C2075 no-str-", 0xcdc58d7c026031a1),
    ("MP.shared+fence_block@Titan no-str-", 0xae5e65ce530e5070),
    ("MP.shared+fence_block@C2075 no-str-", 0xa5527e3dcde44870),
    ("SB.shared+fence_block@Titan no-str-", 0x566a7ad8bac1d949),
    ("SB.shared+fence_block@C2075 no-str-", 0x76abd1652dd4b4fd),
    ("MP.mixed@Titan no-str-", 0x75d56fcc0c7e5a90),
    ("MP.mixed@C2075 no-str-", 0x7331c0e74773288c),
    ("ISA2.scoped@Titan no-str-", 0x7049a09ff9000762),
    ("ISA2.scoped@C2075 no-str-", 0x9050ef563a4f27b4),
    ("WRC+fences@Titan no-str-", 0xcd7ea7de2492e8a1),
    ("WRC+fences@C2075 no-str-", 0xc03b7b19488c6480),
    ("ISA2+fences@Titan no-str-", 0x38c12b84747e5681),
    ("ISA2+fences@C2075 no-str-", 0xd5fb002052a7007f),
    ("IRIW+fences@Titan no-str-", 0x8d384d3ab628831f),
    ("IRIW+fences@C2075 no-str-", 0xe4bdffef1cfc119b),
    ("CoRR+fence@Titan no-str-", 0xc8cc9ec6aeb6a2e0),
    ("CoRR+fence@C2075 no-str-", 0x5c9a9b08bdd87aa2),
    ("MP@Titan sys-str+", 0x0dcb5c4c0f2bf350),
    ("MP@C2075 sys-str+", 0x4c186b4cc0e0dcd6),
    ("LB@Titan sys-str+", 0x90a8096f382d7551),
    ("LB@C2075 sys-str+", 0x123edc56c1358732),
    ("SB@Titan sys-str+", 0x3497e66b07bd9cd3),
    ("SB@C2075 sys-str+", 0x13b1cd76bbd40a54),
    ("S@Titan sys-str+", 0xe80a25c1874a4a12),
    ("S@C2075 sys-str+", 0x9a0e30cc35ebe656),
    ("R@Titan sys-str+", 0xe46028b17ee88916),
    ("R@C2075 sys-str+", 0x02cc8ecb18d12212),
    ("2+2W@Titan sys-str+", 0x7cd14296c26d9b11),
    ("2+2W@C2075 sys-str+", 0x55236ce87159c632),
    ("WRC@Titan sys-str+", 0xab125e7b915399d6),
    ("WRC@C2075 sys-str+", 0x38f5cce68f1395f3),
    ("RWC@Titan sys-str+", 0xe76679c42bf2b1d7),
    ("RWC@C2075 sys-str+", 0x00c9157d1e07c635),
    ("ISA2@Titan sys-str+", 0x667a6c1fa50f6c94),
    ("ISA2@C2075 sys-str+", 0x50e9fbc4cf72f816),
    ("IRIW@Titan sys-str+", 0x6824730750526056),
    ("IRIW@C2075 sys-str+", 0x03482afc3bc60775),
    ("CoRR@Titan sys-str+", 0xd016f82e0bbe5ad0),
    ("CoRR@C2075 sys-str+", 0xa0633cbbd2a2bdd2),
    ("CoWW@Titan sys-str+", 0x03cc23f71373907e),
    ("CoWW@C2075 sys-str+", 0x03cc23f71373907e),
    ("MP+fences@Titan sys-str+", 0x1133fbebd5176fbe),
    ("MP+fences@C2075 sys-str+", 0x1133fbebd5176fbe),
    ("SB+fences@Titan sys-str+", 0x44257526a48162d2),
    ("SB+fences@C2075 sys-str+", 0x88887e403dd7b5df),
    ("MP.shared@Titan sys-str+", 0xb347e159079908d4),
    ("MP.shared@C2075 sys-str+", 0xfbd56911ec7db150),
    ("SB.shared@Titan sys-str+", 0x09243277f9c78171),
    ("SB.shared@C2075 sys-str+", 0xd191f1286c3118d0),
    ("CoRR.shared@Titan sys-str+", 0x3be5bd18c5b931d0),
    ("CoRR.shared@C2075 sys-str+", 0x0c506351aeb93550),
    ("MP+CAS@Titan sys-str+", 0x7e4db5de675fdb96),
    ("MP+CAS@C2075 sys-str+", 0x98c02040664dadb5),
    ("2+2W.exch@Titan sys-str+", 0x2bbef6f2c71ddc52),
    ("2+2W.exch@C2075 sys-str+", 0xafc6a53300ee8010),
    ("CoAdd@Titan sys-str+", 0x18120b5188834591),
    ("CoAdd@C2075 sys-str+", 0x7e772c5aa0c61a55),
    ("MP.shared+fence_block@Titan sys-str+", 0x45a06e2104f420d2),
    ("MP.shared+fence_block@C2075 sys-str+", 0x768eb768d06d90b2),
    ("SB.shared+fence_block@Titan sys-str+", 0xd7f75457ac8e6fb1),
    ("SB.shared+fence_block@C2075 sys-str+", 0x3b2813d4e8d22fb1),
    ("MP.mixed@Titan sys-str+", 0xbf3febec2e87d654),
    ("MP.mixed@C2075 sys-str+", 0x3be5bd18c5b931d0),
    ("ISA2.scoped@Titan sys-str+", 0x3228264128275db3),
    ("ISA2.scoped@C2075 sys-str+", 0x3d3e2830c99b7eb6),
    ("WRC+fences@Titan sys-str+", 0x1847a0f34ac7c0f0),
    ("WRC+fences@C2075 sys-str+", 0xc29e3181164bd3f0),
    ("ISA2+fences@Titan sys-str+", 0x162f602d19324a7f),
    ("ISA2+fences@C2075 sys-str+", 0x162f602d19324a7f),
    ("IRIW+fences@Titan sys-str+", 0x3322e5d82e066cf9),
    ("IRIW+fences@C2075 sys-str+", 0xda5ef3eea1786e16),
    ("CoRR+fence@Titan sys-str+", 0xde5aa11a34d69b52),
    ("CoRR+fence@C2075 sys-str+", 0xd191f1286c3118d0),
    ("MP@C2075 l1-str+", 0x31ee57f86f622510),
    ("LB@C2075 l1-str+", 0x20e5d042722ba111),
    ("SB@C2075 l1-str+", 0x93455ccbaabe15f5),
    ("S@C2075 l1-str+", 0x1a4f6129098a7252),
    ("R@C2075 l1-str+", 0x491a4e12f67e2051),
    ("2+2W@C2075 l1-str+", 0xb22ec82e9e65d091),
    ("WRC@C2075 l1-str+", 0x2f4958ad00666495),
    ("RWC@C2075 l1-str+", 0x7939dd5b050569b5),
    ("ISA2@C2075 l1-str+", 0xb46365a32acdf9f7),
    ("IRIW@C2075 l1-str+", 0xdd84fc1654899956),
    ("CoRR@C2075 l1-str+", 0xbf3febec2e87d654),
    ("CoWW@C2075 l1-str+", 0x03cc23f71373907e),
    ("MP+fences@C2075 l1-str+", 0x1133fbebd5176fbe),
    ("SB+fences@C2075 l1-str+", 0x88887e403dd7b5df),
    ("MP.shared@C2075 l1-str+", 0xe92ff7db4bb0f5d0),
    ("SB.shared@C2075 l1-str+", 0xc029d2c78307c6f1),
    ("CoRR.shared@C2075 l1-str+", 0x4cee650d0716dd55),
    ("MP+CAS@C2075 l1-str+", 0x189c6474de03ff35),
    ("2+2W.exch@C2075 l1-str+", 0xf7bd1d4d201ef251),
    ("CoAdd@C2075 l1-str+", 0x4909667de1680bb3),
    ("MP.shared+fence_block@C2075 l1-str+", 0xdfd59a1495495952),
    ("SB.shared+fence_block@C2075 l1-str+", 0x88887e403dd7b5df),
    ("MP.mixed@C2075 l1-str+", 0xd016f82e0bbe5ad0),
    ("ISA2.scoped@C2075 l1-str+", 0x32a6b9fa99b10552),
    ("WRC+fences@C2075 l1-str+", 0x111db38fb7d74492),
    ("ISA2+fences@C2075 l1-str+", 0x162f602d19324a7f),
    ("IRIW+fences@C2075 l1-str+", 0xa1d452f874406cb7),
    ("CoRR+fence@C2075 l1-str+", 0x45a06e2104f420d2),
    ("MP.shared@Titan shm+sys-str+", 0x84fbb1e96a2b6d50),
    ("SB.shared@Titan shm+sys-str+", 0x19f14ba685bcba37),
    ("CoRR.shared@Titan shm+sys-str+", 0x69bd7be20b3c2f51),
    ("MP.shared+fence_block@Titan shm+sys-str+", 0x8f8e06c641c18294),
    ("SB.shared+fence_block@Titan shm+sys-str+", 0xd016f82e0bbe5ad0),
    ("MP.mixed@Titan shm+sys-str+", 0x8f73b5e5e69000d6),
    ("ISA2.scoped@Titan shm+sys-str+", 0x387814a4e19607f4),
    ("app K20 sys-str+ cbe-dot 2 7", 0x033d41ffa19c284e),
];

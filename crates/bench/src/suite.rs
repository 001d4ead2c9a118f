//! `repro suite` — campaign the generated litmus suite.
//!
//! Runs every shape of the `wmm-gen` catalogue across chips × stress
//! strategies — through the unified campaign facade
//! (`wmm_core::campaign`), with each `(chip, strategy)` column's stress
//! kernels compiled once for the whole matrix — and prints a weak-rate
//! matrix. Every cell stresses the one litmus scratchpad
//! ([`wmm_core::suite::litmus_pad`]), so a cell is the same campaign
//! whichever chips ride along, and equals the `repro serve` litmus job
//! seeded with its `cell_seed`. Each cell's weak-outcome predicate is
//! derived by the SC-enumeration oracle — nothing on this path carries
//! a hand-written predicate. `--json <path>` also writes the matrix as
//! a JSON document, one line per cell ([`to_json`]).

use crate::Scale;
use wmm_core::env::EnvKind;
use wmm_core::suite::{run_suite, SuiteCell, SuiteConfig, SuiteStrategy};
use wmm_gen::{Placement, Shape};
use wmm_obs::{Json, Provenance};
use wmm_sim::chip::Chip;

/// The suite's default strategy column set, one column per
/// [`EnvKind`] in [`EnvKind::ALL`] order at [`EnvKind::litmus_iters`]:
/// native, the paper's tuned systematic environment and the random
/// baseline (both with thread randomisation), the shared-stress column
/// `shm+sys-str+` — systematic global stress with the block's idle
/// lanes hammering a shared scratchpad, the configuration under which
/// the scoped (intra-block, shared-memory) rows go observably weak —
/// and the structural column `l1-str+`, whose write-only cross-SM
/// traffic pressures incoherent SM-private L1s so the same-address read
/// pairs (`CoRR`) go weak on the Tesla-class chips.
pub fn default_strategies() -> Vec<SuiteStrategy> {
    EnvKind::ALL.map(SuiteStrategy::from).to_vec()
}

/// Run the suite for the requested chips (default: Titan and K20, one
/// Kepler flagship and one compute part) and print the weak-rate
/// matrix. `placement` restricts the catalogue to shapes of one thread
/// placement (`repro suite --placement intra` runs just the scoped
/// rows). `provenance` adds a per-row weakness-channel breakdown column
/// (`repro suite --provenance`). Returns the cells for JSON
/// serialisation and tests.
pub fn run(
    chips: Option<Vec<Chip>>,
    placement: Option<Placement>,
    scale: Scale,
    provenance: bool,
) -> Vec<SuiteCell> {
    let chips = chips.unwrap_or_else(|| {
        vec![
            Chip::by_short("Titan").expect("chip"),
            Chip::by_short("K20").expect("chip"),
        ]
    });
    let shapes: Vec<Shape> = Shape::ALL
        .into_iter()
        .filter(|s| placement.is_none_or(|p| s.placement() == p))
        .collect();
    let strategies = default_strategies();
    let cfg = SuiteConfig {
        execs: scale.execs,
        base_seed: scale.seed,
        workers: scale.workers,
        ..SuiteConfig::default()
    };
    println!(
        "Generated litmus suite: {} shapes x {} chip(s) x {} strategies, d={:?}, {} execs/cell",
        shapes.len(),
        chips.len(),
        strategies.len(),
        cfg.distances,
        cfg.execs
    );
    println!("(weak predicate of every cell derived by the SC-enumeration oracle)\n");
    let cells = run_suite(&shapes, &chips, &strategies, &cfg);
    print_matrix(&chips, &strategies, &cells, provenance);
    // Describe only the rows actually in the table above.
    match placement {
        Some(Placement::IntraBlock) => {
            println!("Expected shape: the scoped intra rows relax only under shm+sys-str+,");
            println!("whose shared-scratchpad stressing lanes feed the per-block shared");
            println!("contention factor — MP.shared/SB.shared and the mixed-scope shapes go");
            println!("weak there, while their +fence_block twins (the cheap membar.cta rung");
            println!("of the fence hierarchy) and the single-location CoRR.shared stay at");
            println!("zero under every column.");
        }
        _ => {
            println!("Expected shape: sys-str+ provokes weak outcomes on the relaxed shapes");
            println!("(MP/LB/SB/S/R/2+2W, the 3/4-thread cycles and the RMW cycles MP+CAS/");
            println!("2+2W.exch); CoWW/CoAdd never go weak (same-line write ordering and");
            println!("atomicity are preserved), and CoRR holds on coherent-L1 chips — but on");
            println!("the incoherent-L1 Teslas (C2075/C2050) the l1-str+ column's cross-SM");
            println!("write pressure makes CoRR read stale L1 lines, with CoRR+fence pinned");
            println!("at zero; every +fences variant stays at");
            if placement.is_none() {
                println!("zero, the scoped [intra] rows go weak only under shm+sys-str+ (with");
                println!("their +fence_block twins pinned at zero), and no-str- stays at zero");
                println!("everywhere.");
            } else {
                println!("zero, and no-str- stays at zero everywhere.");
            }
        }
    }
    cells
}

/// Print the matrix: one row per (shape, distance) with its placement,
/// one column per (chip, strategy). With `provenance`, a trailing
/// column aggregates the row's weakness-channel attribution across all
/// its cells (`-` when the row never went weak).
fn print_matrix(
    chips: &[Chip],
    strategies: &[SuiteStrategy],
    cells: &[SuiteCell],
    provenance: bool,
) {
    print!("{:>13} {:>7} {:>12}", "shape", "place", "static");
    for chip in chips {
        for s in strategies {
            print!(" {:>15}", format!("{}/{}", chip.short, s.env));
        }
    }
    if provenance {
        print!("  provenance");
    }
    println!();
    let mut i = 0;
    while i < cells.len() {
        let row = &cells[i];
        print!(
            "{:>13} {:>7} {:>12}",
            format!("{}@{}", row.shape, row.distance),
            row.placement,
            row.static_verdict
        );
        let mut row_prov = Provenance::default();
        for _ in 0..chips.len() * strategies.len() {
            let c = &cells[i];
            print!(
                " {:>15}",
                format!(
                    "{}/{} ({:.1}%)",
                    c.hist.weak(),
                    c.hist.total(),
                    100.0 * c.weak_rate()
                )
            );
            row_prov.add(&c.hist.provenance_total());
            i += 1;
        }
        if provenance {
            print!("  {row_prov}");
        }
        println!();
    }
    println!();
}

/// The cells as a JSON document: the run's `execs` and `seed`, then one
/// row per cell. With `provenance`, every row also carries the cell's
/// deterministic weakness-channel counters and attribution, and every
/// weak outcome its own attribution, which sums to the outcome's count.
pub fn to_json(cells: &[SuiteCell], execs: u32, seed: u64, provenance: bool) -> Json {
    let row = |c: &SuiteCell| {
        let mut row = vec![
            ("shape", c.shape.short().into()),
            ("distance", c.distance.into()),
            ("placement", c.placement.short().into()),
            ("spaces", c.spaces.iter().map(|s| s.name()).collect()),
            ("chip", c.chip.as_str().into()),
            ("strategy", c.strategy.as_str().into()),
            ("static", c.static_verdict.to_string().into()),
            ("static_warnings", c.static_verdict.warnings.into()),
            ("weak", c.hist.weak().into()),
            ("total", c.hist.total().into()),
            ("rate", Json::Fixed(c.weak_rate(), 6)),
        ];
        if provenance {
            row.push(("channels", c.hist.channels().to_json()));
            row.push(("provenance", c.hist.provenance_total().to_json()));
        }
        let outcomes = c.hist.iter().map(|(obs, n)| {
            let mut outcome = vec![("obs", obs.iter().copied().collect()), ("count", n.into())];
            if let Some(p) = c.hist.provenance(obs).filter(|_| provenance) {
                outcome.push(("provenance", p.to_json()));
            }
            Json::Object(outcome)
        });
        row.push(("outcomes", outcomes.collect()));
        Json::Object(row)
    };
    Json::Object(vec![
        ("execs", execs.into()),
        ("seed", seed.into()),
        ("cells", cells.iter().map(row).collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_the_catalogue_and_goes_weak_under_stress() {
        let scale = Scale {
            execs: 24,
            ..Scale::quick()
        };
        let cells = run(
            Some(vec![Chip::by_short("Titan").unwrap()]),
            None,
            scale,
            true,
        );
        // Every shape × 1 chip × the default strategy columns.
        assert_eq!(cells.len(), Shape::ALL.len() * default_strategies().len());
        // Under sys-str+, the relaxed two-thread shapes show weak
        // behaviour; the coherence tests never do, and the scoped rows
        // relax only once the shared-stress column pressures the block.
        let weak_of = |shape: Shape, strat: &str| {
            cells
                .iter()
                .find(|c| c.shape == shape && c.strategy == strat)
                .map(|c| c.hist.weak())
                .unwrap()
        };
        assert!(weak_of(Shape::Mp, "sys-str+") > 0, "MP should go weak");
        assert_eq!(
            weak_of(Shape::CoRR, "sys-str+"),
            0,
            "CoRR must stay coherent"
        );
        assert_eq!(
            weak_of(Shape::CoWW, "sys-str+"),
            0,
            "CoWW must stay coherent"
        );
        for shape in Shape::SCOPED {
            assert_eq!(
                weak_of(shape, "sys-str+"),
                0,
                "{shape}: without shared-space stress the block is quiescent"
            );
        }
        // The shared-stress column flips the scoped rows...
        assert!(
            weak_of(Shape::MpShared, "shm+sys-str+") > 0,
            "MP.shared should go weak under shared stress"
        );
        assert!(
            weak_of(Shape::SbShared, "shm+sys-str+") > 0,
            "SB.shared should go weak under shared stress"
        );
        // ...while coherence and the block-fenced twins hold at zero.
        assert_eq!(weak_of(Shape::CoRRShared, "shm+sys-str+"), 0);
        for shape in Shape::SCOPED_FENCED {
            assert_eq!(
                weak_of(shape, "shm+sys-str+"),
                0,
                "{shape}: fence_block must order shared space"
            );
        }
        for shape in Shape::WIDE_FENCED {
            assert_eq!(
                weak_of(shape, "sys-str+"),
                0,
                "{shape}: device fences must suppress the wide cycles"
            );
        }
        assert_eq!(weak_of(Shape::CoAdd, "sys-str+"), 0, "CoAdd must be atomic");
    }

    #[test]
    fn default_strategies_are_the_env_kinds_at_litmus_iters() {
        let columns: Vec<(EnvKind, u32)> = default_strategies()
            .iter()
            .map(|s| (s.env, s.iters))
            .collect();
        let kinds: Vec<(EnvKind, u32)> = EnvKind::ALL
            .iter()
            .map(|&k| (k, k.litmus_iters()))
            .collect();
        assert_eq!(columns, kinds);
    }

    #[test]
    fn placement_filter_selects_the_scoped_rows() {
        let scale = Scale {
            execs: 8,
            ..Scale::quick()
        };
        let cells = run(
            Some(vec![Chip::by_short("K20").unwrap()]),
            Some(Placement::IntraBlock),
            scale,
            false,
        );
        let intra = Shape::SCOPED.len() + Shape::SCOPED_FENCED.len() + Shape::MIXED.len();
        assert_eq!(cells.len(), intra * default_strategies().len());
        assert!(cells.iter().all(|c| c.placement == Placement::IntraBlock));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let scale = Scale {
            execs: 8,
            ..Scale::quick()
        };
        let cfg = SuiteConfig {
            execs: scale.execs,
            base_seed: scale.seed,
            workers: 1,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::CoWW, Shape::MpShared, Shape::MpMixed],
            &[Chip::by_short("K20").unwrap()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let j = to_json(&cells, cfg.execs, cfg.base_seed, false).render();
        // Without --provenance the document carries no channel fields.
        assert!(!j.contains("\"channels\""));
        assert!(!j.contains("\"provenance\""));
        assert_eq!(j.matches("\"shape\"").count(), 4);
        assert!(j.contains("\"MP\""));
        assert!(j.contains("\"CoWW\""));
        assert_eq!(j.matches("\"placement\": \"inter\"").count(), 2);
        // The spaces axis lets tooling filter rows without name-parsing.
        assert_eq!(j.matches("\"spaces\": [\"global\"]").count(), 2);
        assert_eq!(j.matches("\"spaces\": [\"shared\"]").count(), 1);
        assert_eq!(j.matches("\"spaces\": [\"global\", \"shared\"]").count(), 1);
        // The static column rides along: MP warns at device level,
        // MP.shared at block level, and CoWW is certified quiet.
        assert_eq!(j.matches("\"static\"").count(), 4);
        assert!(j.contains("\"static\": \"warn(device)\""));
        assert!(j.contains("\"static\": \"warn(block)\""));
        assert!(j.contains("\"static\": \"quiet\""));
    }

    /// The suite document of MP and MP.shared on the K20, natively, at 4
    /// executions (seed 2016), with and without `--provenance`.
    fn small_suite(provenance: bool) -> String {
        let cfg = SuiteConfig {
            execs: 4,
            base_seed: 2016,
            workers: 1,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpShared],
            &[Chip::by_short("K20").unwrap()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        to_json(&cells, cfg.execs, cfg.base_seed, provenance).render()
    }

    #[test]
    fn small_suite_renders_the_recorded_bytes() {
        let expected = r#"{
  "execs": 4,
  "seed": 2016,
  "cells": [
    {"shape": "MP", "distance": 64, "placement": "inter", "spaces": ["global"], "chip": "K20", "strategy": "no-str-", "static": "warn(device)", "static_warnings": 2, "weak": 0, "total": 4, "rate": 0.000000, "outcomes": [{"obs": [0, 0], "count": 1}, {"obs": [0, 1], "count": 3}]},
    {"shape": "MP.shared", "distance": 64, "placement": "intra", "spaces": ["shared"], "chip": "K20", "strategy": "no-str-", "static": "warn(block)", "static_warnings": 2, "weak": 0, "total": 4, "rate": 0.000000, "outcomes": [{"obs": [0, 0], "count": 1}, {"obs": [1, 1], "count": 3}]}
  ]
}
"#;
        assert_eq!(small_suite(false), expected);
    }

    #[test]
    fn small_provenance_suite_renders_the_recorded_bytes() {
        let expected = r#"{
  "execs": 4,
  "seed": 2016,
  "cells": [
    {"shape": "MP", "distance": 64, "placement": "inter", "spaces": ["global"], "chip": "K20", "strategy": "no-str-", "static": "warn(device)", "static_warnings": 2, "weak": 0, "total": 4, "rate": 0.000000, "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 0, "fence_inval": 0, "atomic_read_through": 0}, "provenance": {"window_global": 0, "window_shared": 0, "l1_stale": 0, "atomic_read_through": 0, "fence_inval": 0, "unattributed": 0}, "outcomes": [{"obs": [0, 0], "count": 1}, {"obs": [0, 1], "count": 3}]},
    {"shape": "MP.shared", "distance": 64, "placement": "intra", "spaces": ["shared"], "chip": "K20", "strategy": "no-str-", "static": "warn(block)", "static_warnings": 2, "weak": 0, "total": 4, "rate": 0.000000, "channels": {"window_global": 0, "window_shared": 0, "l1_stale": 0, "fence_inval": 0, "atomic_read_through": 0}, "provenance": {"window_global": 0, "window_shared": 0, "l1_stale": 0, "atomic_read_through": 0, "fence_inval": 0, "unattributed": 0}, "outcomes": [{"obs": [0, 0], "count": 1}, {"obs": [1, 1], "count": 3}]}
  ]
}
"#;
        assert_eq!(small_suite(true), expected);
    }

    #[test]
    fn provenance_json_breaks_down_every_weak_outcome() {
        let cfg = SuiteConfig {
            execs: 40,
            base_seed: 7,
            workers: 1,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp],
            &[Chip::by_short("Titan").unwrap()],
            &[SuiteStrategy::sys_str_plus(40)],
            &cfg,
        );
        let c = &cells[0];
        assert!(c.hist.weak() > 0, "MP under sys-str+ must go weak");
        // Every weak outcome's attribution sums to its count, so the
        // row-level provenance totals the row's weak count.
        for (obs, n) in c.hist.iter() {
            if let Some(p) = c.hist.provenance(obs) {
                assert_eq!(p.total(), n);
            }
        }
        assert_eq!(c.hist.provenance_total().total(), c.hist.weak());
        let j = to_json(&cells, cfg.execs, cfg.base_seed, true).render();
        assert!(j.contains("\"channels\": {\"window_global\":"), "{j}");
        assert!(j.contains("\"provenance\": {\"window_global\":"), "{j}");
        // MP on a coherent-L1 Kepler relaxes through the store window
        // only — never the structural L1 channel.
        assert!(j.contains("\"l1_stale\": 0"), "{j}");
        // The no-provenance rendering of the same cells stays clean.
        assert!(!to_json(&cells, cfg.execs, cfg.base_seed, false)
            .render()
            .contains("\"channels\""));
    }
}

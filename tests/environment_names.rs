//! Pin the environment naming scheme against Tab. 5 of the paper.
//!
//! These strings are load-bearing: `repro --json` serialises them, the
//! Tab. 5 table prints them as column headers in the paper's order, and
//! downstream consumers match on them. Any rename or reorder must be a
//! deliberate, visible change.

use gpu_wmm::core::env::{EnvKind, Environment};
use gpu_wmm::core::stress::StressStrategy;
use gpu_wmm::core::suite::SuiteStrategy;
use gpu_wmm::sim::chip::Chip;

/// Tab. 5's column order: `{no,sys,rand,cache}-str` × `{-,+}`.
const TAB5_COLUMNS: [&str; 8] = [
    "no-str-",
    "no-str+",
    "sys-str-",
    "sys-str+",
    "rand-str-",
    "rand-str+",
    "cache-str-",
    "cache-str+",
];

#[test]
fn all_eight_matches_tab5_order_on_every_chip() {
    for chip in Chip::all() {
        let names: Vec<String> = Environment::all_eight(&chip)
            .iter()
            .map(Environment::name)
            .collect();
        assert_eq!(names, TAB5_COLUMNS, "{}", chip.short);
    }
}

#[test]
fn l1_str_plus_is_named_but_stays_out_of_tab5() {
    // The structural L1 environment post-dates the paper: it gets the
    // same `<strategy><randomized>` naming scheme, but Tab. 5 keeps
    // exactly its eight published columns — `l1-str+` appears only in
    // the extended suite, never in `all_eight`.
    assert_eq!(Environment::l1_str_plus().name(), "l1-str+");
    assert_eq!(StressStrategy::L1.short(), "l1-str");
    assert_eq!(SuiteStrategy::l1_str_plus(40).env.name(), "l1-str+");
    for chip in Chip::all() {
        let names: Vec<String> = Environment::all_eight(&chip)
            .iter()
            .map(Environment::name)
            .collect();
        assert_eq!(names.len(), 8, "{}", chip.short);
        assert!(!names.contains(&"l1-str+".to_string()), "{}", chip.short);
    }
}

#[test]
fn strategy_short_names_match_the_paper() {
    let chip = Chip::by_short("K20").unwrap();
    assert_eq!(StressStrategy::None.short(), "no-str");
    assert_eq!(StressStrategy::Random.short(), "rand-str");
    assert_eq!(StressStrategy::CacheSized.short(), "cache-str");
    assert_eq!(Environment::sys_str_plus(&chip).stress.short(), "sys-str");
}

#[test]
fn environment_names_compose_short_and_suffix() {
    let chip = Chip::by_short("Titan").unwrap();
    assert_eq!(Environment::native().name(), "no-str-");
    assert_eq!(Environment::sys_str_plus(&chip).name(), "sys-str+");
    // Display goes through the same name.
    assert_eq!(Environment::sys_str_plus(&chip).to_string(), "sys-str+");
}

#[test]
fn suite_columns_reuse_the_environment_naming() {
    // The suite's JSON `strategy` field must keep matching Tab. 5's
    // vocabulary so cross-experiment tooling can join on it.
    assert_eq!(SuiteStrategy::native().env.name(), "no-str-");
    assert_eq!(SuiteStrategy::sys_str_plus(40).env.name(), "sys-str+");
    assert_eq!(SuiteStrategy::rand_str_plus(40).env.name(), "rand-str+");
    let chip = Chip::by_short("980").unwrap();
    for s in [
        SuiteStrategy::sys_str_plus(40),
        SuiteStrategy::rand_str_plus(40),
    ] {
        let prefix = s.environment(&chip).stress.short();
        let name = s.env.name();
        assert!(name.starts_with(prefix), "{name} vs {prefix}");
    }
}

#[test]
fn env_kinds_resolve_to_their_named_environment_on_every_chip() {
    // One vocabulary: each of the five suite/job names parses back to
    // its kind, resolves on every chip to an environment printing that
    // name, and its suite column runs exactly that environment with
    // the matching thread randomisation.
    let columns = [
        SuiteStrategy::native(),
        SuiteStrategy::sys_str_plus(40),
        SuiteStrategy::rand_str_plus(40),
        SuiteStrategy::shared_sys_str_plus(40),
        SuiteStrategy::l1_str_plus(40),
    ];
    for chip in Chip::all() {
        for (k, column) in EnvKind::ALL.into_iter().zip(columns) {
            let at = format!("{k} on {}", chip.short);
            let env = k.environment(&chip);
            assert_eq!(k.name().parse::<EnvKind>(), Ok(k), "{at}");
            assert_eq!(env.name(), k.name(), "{at}");
            assert_eq!(column.env, k, "{at}");
            assert_eq!(column.environment(&chip), env, "{at}");
            assert_eq!(column.randomize, env.randomize, "{at}");
        }
    }
}

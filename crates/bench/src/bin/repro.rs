//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--chips A,B,...] [--execs N] [--runs N] [--seed N]
//!                    [--workers N] [--json PATH] [--placement inter|intra]
//!                    [--provenance] [--env NAME] [--full]
//!
//! experiments:
//!   fig3            patch-finding plots (default Titan, C2075, 980)
//!   table2          tuned stressing parameters per chip
//!   table3          access-sequence ranking snippet (default Titan)
//!   fig4            spread-finding curves (default 980, K20)
//!   table5          testing-environment effectiveness
//!   table6          empirical fence insertion
//!   fig5            fence runtime/energy cost
//!   running-example the cbe-dot running example (Sec. 1; default K20)
//!   suite           generated litmus suite (shapes x chips x strategies;
//!                   --provenance adds the weakness-channel breakdown
//!                   column and JSON fields)
//!   trace SHAPE     replay one suite cell with a bounded event log
//!                   (--chips C picks the chip, default Titan; --env NAME
//!                   picks the suite environment, default by placement;
//!                   --json PATH writes the buffered events)
//!   analyze TARGET  static delay-set analysis of a shape or app kernel
//!                   (TARGET: shape short name, app name, shapes, apps, all;
//!                   --chips A,B re-runs the analysis per chip, adding the
//!                   incoherent-L1 read-read channel where the chip has one)
//!   serve           batch campaign jobs through the engine
//!                   (--jobs FILE-or-inline-spec; jobs separated by
//!                   newlines or `;`)
//!   soak            serve the soak's seeded job grid (seed from --seed)
//!                   and print the batch summary and results digest
//!   all             everything above, in order (except serve/soak)
//!
//! `--chips A,B` picks the chips of every experiment that runs per chip;
//! without it, each runs on the paper's chips for its panels (all seven
//! where the paper tabulates every chip). `--seed N` sets the base seed
//! every subcommand derives its per-campaign seeds from (default 2016) —
//! one flag reseeds the entire reproduction. `--execs N` (litmus
//! executions per configuration, default 32) and `--runs N` (executions
//! per application campaign, default 120) are used as given; `--full`
//! raises both defaults (to 200 and 600). `--workers N` sets the
//! campaign worker-thread count (0 = all cores, the default). Results
//! are bit-identical for every worker count. `--json PATH` (suite, trace
//! and analyze) writes the result as JSON; the file is made before any
//! campaign runs or any table prints. `--placement inter|intra` (suite
//! only) restricts the catalogue to one thread placement — `intra` runs
//! just the scoped shared-memory shapes.
//!
//! A bad command line — an unknown subcommand, flag, chip, placement,
//! target or environment, or a missing or unparsable value — prints the
//! offending token and the usage, and exits 2. A document that cannot be
//! written prints the path, without the usage, and exits 2 too.
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use wmm_bench::{
    analyze, fig3, fig4, fig5, running, serve, soak, suite, table2, table3, table5, table6, trace,
    Failure, JsonFile, Scale,
};
use wmm_sim::chip::Chip;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        if let Failure::Usage(_) = e {
            usage();
        }
        ExitCode::from(2)
    })
}

/// The value following `flag`.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} wants a value"))
}

/// The value following `flag`, parsed.
fn parsed<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

/// Parse the command line and run it. `Err` is a bad command line or an
/// unwritable document; every other outcome is the exit code.
fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let cmd = args.first().ok_or("no experiment given")?;
    let mut scale = if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    let mut chips: Option<Vec<Chip>> = None;
    let mut json_path: Option<String> = None;
    let mut placement: Option<wmm_gen::Placement> = None;
    let mut jobs_spec: Option<String> = None;
    let mut provenance = false;
    let mut env_name: Option<String> = None;
    // `analyze` and `trace` take one positional target before the flags.
    let mut target = "";
    let mut flag_start = 1;
    if cmd == "analyze" || cmd == "trace" {
        match args.get(1) {
            Some(t) if !t.starts_with("--") => {
                target = t;
                flag_start = 2;
            }
            _ if cmd == "analyze" => {
                return Err("analyze wants a target (shape, app, shapes, apps, or all)".into())
            }
            _ => return Err("trace wants a shape short name (e.g. MP, CoRR, MP.shared)".into()),
        }
    }
    let mut it = args.iter().skip(flag_start);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chips" => {
                let names = value(&mut it, a)?;
                chips = Some(
                    names
                        .split(',')
                        .map(|n| Chip::by_short(n).ok_or_else(|| format!("unknown chip `{n}`")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--execs" => scale.execs = parsed(&mut it, a)?,
            "--runs" => scale.app_runs = parsed(&mut it, a)?,
            "--seed" => scale.seed = parsed(&mut it, a)?,
            "--jobs" => jobs_spec = Some(value(&mut it, a)?.to_string()),
            "--provenance" => provenance = true,
            "--env" => env_name = Some(value(&mut it, a)?.to_string()),
            "--workers" => scale.workers = parsed(&mut it, a)?,
            "--json" => json_path = Some(value(&mut it, a)?.to_string()),
            "--placement" => placement = Some(value(&mut it, a)?.parse()?),
            "--full" => {}
            other => return Err(Failure::Usage(format!("unknown flag `{other}`"))),
        }
    }
    // The suite's `--json` file, made before any campaign runs (for
    // `all`, before the first table).
    let suite_json = || json_path.as_deref().map(JsonFile::create).transpose();
    let run_suite = |chips: Option<Vec<Chip>>, out: Option<JsonFile>| -> Result<(), Failure> {
        let cells = suite::run(chips, placement, scale, provenance);
        out.map_or(Ok(()), |out| {
            out.write(&suite::to_json(&cells, scale.execs, scale.seed, provenance))
        })
    };
    match cmd.as_str() {
        "fig3" => fig3::run(chips, scale),
        "table2" => {
            table2::run(chips, scale);
        }
        "table3" => table3::run(chips, scale),
        "fig4" => fig4::run(chips, scale),
        "table5" => {
            table5::run(chips, scale);
        }
        "table6" => {
            table6::run(chips, scale);
        }
        "fig5" => {
            fig5::run(chips, scale);
        }
        "running-example" => running::run(chips, scale),
        "suite" => run_suite(chips, suite_json()?)?,
        "trace" => trace::run(
            target,
            chips,
            env_name.as_deref(),
            scale,
            json_path.as_deref(),
        )?,
        "analyze" => analyze::run(target, chips, json_path.as_deref())?,
        "serve" | "soak" => {
            let served = if cmd == "soak" {
                soak::run(scale.seed, scale.workers)
            } else {
                let spec = jobs_spec.ok_or("serve wants --jobs FILE-or-inline-spec")?;
                serve::run(&spec, scale.workers)
            };
            if let Err(e) = served {
                eprintln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        "all" => {
            let out = suite_json()?;
            running::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            fig3::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table2::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table3::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            fig4::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table5::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table6::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            fig5::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            run_suite(chips, out)?;
        }
        other => return Err(Failure::Usage(format!("unknown experiment `{other}`"))),
    }
    Ok(ExitCode::SUCCESS)
}

fn usage() {
    eprintln!(
        "usage: repro <fig3|table2|table3|fig4|table5|table6|fig5|running-example|suite|\
         analyze TARGET|trace SHAPE|serve|soak|all> \
         [--chips A,B] [--execs N] [--runs N] [--seed N] [--workers N] [--json PATH] \
         [--placement inter|intra] [--provenance] [--env NAME] [--jobs SPEC] [--full]\n\
         \n\
         --chips A,B    the chips to run on (default: the paper's chips for each experiment)\n\
         --seed N       base seed for every subcommand's campaigns (default 2016)\n\
         --workers N    campaign worker threads (0 = all cores, the default);\n\
         \x20              results are bit-identical for every value\n\
         --placement P  (suite) restrict the catalogue to inter- or intra-block shapes\n\
         --provenance   (suite) add the weakness-channel breakdown column; with --json,\n\
         \x20              per-cell channel counters and per-weak-outcome attribution\n\
         trace SHAPE    replay one suite cell with a bounded structured event log;\n\
         \x20              --chips C picks the chip (default Titan), --env NAME the suite\n\
         \x20              environment (default by placement), --json PATH the event dump\n\
         analyze TARGET static delay-set analysis; TARGET is a shape short name\n\
         \x20              (e.g. MP.shared), an app name (e.g. cbe-dot, shm-pipe),\n\
         \x20              shapes, apps, or all; --json PATH writes the report;\n\
         \x20              --chips A,B analyzes per chip (adds the incoherent-L1\n\
         \x20              read-read channel on chips that have one)\n\
         serve          batch campaign jobs through the engine; --jobs is a file\n\
         \x20              of job lines or an inline `;`-separated spec; exits 1 on a bad job\n\
         soak           serve the soak's seeded job grid (--seed, --workers) and print\n\
         \x20              the batch summary and results digest; exits 1 on a failed job\n\
         \n\
         A bad command line exits 2."
    );
}
